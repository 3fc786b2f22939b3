//go:build !race && !jiffydebug

package blockstore

const poolsInstrumented = false
