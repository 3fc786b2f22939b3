//go:build race || jiffydebug

package rpc

// poolsInstrumented reports a build whose large class (the one
// sync.Pool left: large frames' buffers, file chunks' memory) does not
// behave as in production, so allocation gates that wait on it skip:
// under -race sync.Pool drops a quarter of all puts, and the jiffydebug
// build tracks every pooled buffer in a map. Gates that borrow only
// from free lists skip on wire.Checked alone.
const poolsInstrumented = true
