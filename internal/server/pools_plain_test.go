//go:build !race && !jiffydebug

package server

const poolsInstrumented = false
