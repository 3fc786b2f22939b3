//go:build !race && !jiffydebug

package ds

const poolsInstrumented = false
