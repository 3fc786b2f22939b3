//go:build !jiffydebug

package wire

// Release builds compile the ownership hooks away entirely; the
// assertions live in pool_check_on.go behind -tags jiffydebug.

// Checked reports a build whose free lists and pools track their items
// (-tags jiffydebug); allocation gates skip there.
const Checked = false

func debugTrackGet([]byte) {}

func debugTrackPut([]byte) {}

func debugUntrack([]byte) {}

func debugItemPut[T any](T) {}

func debugItemGet[T any](T) {}

func debugItemDropped[T any](T) {}
