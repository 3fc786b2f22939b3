//go:build !race && !jiffydebug

package wire

const poolsInstrumented = false
