//go:build !race && !jiffydebug

package client_test

const poolsInstrumented = false
