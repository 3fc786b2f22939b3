//go:build race || jiffydebug

package server

// poolsInstrumented reports a build whose pools do not behave as in
// production, so allocation gates skip: under -race sync.Pool drops a
// quarter of all puts, and the jiffydebug build tracks every pooled
// buffer in a map.
const poolsInstrumented = true
