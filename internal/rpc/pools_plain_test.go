//go:build !race && !jiffydebug

package rpc

const poolsInstrumented = false
