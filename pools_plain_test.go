//go:build !race && !jiffydebug

package jiffy_test

const poolsInstrumented = false
