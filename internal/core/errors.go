package core

import "errors"

// Sentinel errors shared across the control and data planes. RPC
// boundaries transport these by stable code (see ErrorCode) so that
// errors.Is works on both sides of a connection.
var (
	// ErrNotFound reports a missing key, path, block or job.
	ErrNotFound = errors.New("jiffy: not found")
	// ErrExists reports an attempt to create something that already exists.
	ErrExists = errors.New("jiffy: already exists")
	// ErrNoCapacity reports that the free block list is empty and the
	// allocation could not be satisfied from memory.
	ErrNoCapacity = errors.New("jiffy: no free blocks")
	// ErrBlockFull reports that a block cannot accept the write; for
	// queues and files the client should follow the redirect to the
	// next block, for the KV store the server splits the block.
	ErrBlockFull = errors.New("jiffy: block full")
	// ErrEmpty reports a dequeue from an empty queue.
	ErrEmpty = errors.New("jiffy: empty")
	// ErrStaleEpoch reports that the client's cached partition metadata
	// is older than the server's; the client must refresh its map from
	// the controller and retry.
	ErrStaleEpoch = errors.New("jiffy: stale partition metadata")
	// ErrLeaseExpired reports an operation on a prefix whose lease has
	// expired and whose resources were reclaimed.
	ErrLeaseExpired = errors.New("jiffy: lease expired")
	// ErrPermission reports an access-control violation on a prefix.
	ErrPermission = errors.New("jiffy: permission denied")
	// ErrWrongType reports an operation that does not apply to the data
	// structure stored at the prefix.
	ErrWrongType = errors.New("jiffy: wrong data structure type")
	// ErrClosed reports use of a closed client, server or handle.
	ErrClosed = errors.New("jiffy: closed")
	// ErrTimeout reports an operation that exceeded its deadline.
	ErrTimeout = errors.New("jiffy: timed out")
	// ErrTooLarge reports a value that exceeds a size bound (e.g. an
	// item larger than a block, or a DynamoDB-model object over 128KB).
	ErrTooLarge = errors.New("jiffy: object too large")
	// ErrRedirect is returned internally with a payload naming the
	// block the client should retry against (queue head/tail moved).
	ErrRedirect = errors.New("jiffy: redirected")
	// ErrBlockLost reports that a block's only replica died with no
	// flushed copy in the persist tier; its data is unrecoverable and
	// clients must fail fast instead of retrying.
	ErrBlockLost = errors.New("jiffy: block lost")
	// ErrQuotaExceeded reports that an operation was refused by
	// admission control: the tenant is over one of its registered
	// quotas (ops/sec, bytes/sec, or memory). The server-side form is a
	// *ThrottleError carrying a retry-after hint; clients honor it as
	// backpressure before retrying.
	ErrQuotaExceeded = errors.New("jiffy: quota exceeded")
	// ErrNotLeader reports a control-plane request sent to a standby
	// controller in a replicated group. The server-side form is a
	// *NotLeaderError carrying the current leader's address so clients
	// and servers re-home instead of retrying against the standby.
	ErrNotLeader = errors.New("jiffy: not leader")
)

// ErrorCode is the wire representation of the sentinel errors.
type ErrorCode uint8

// Wire codes. Zero means "no error"; CodeOther carries a message string.
const (
	CodeOK ErrorCode = iota
	CodeNotFound
	CodeExists
	CodeNoCapacity
	CodeBlockFull
	CodeEmpty
	CodeStaleEpoch
	CodeLeaseExpired
	CodePermission
	CodeWrongType
	CodeClosed
	CodeTimeout
	CodeTooLarge
	CodeRedirect
	CodeBlockLost
	CodeQuotaExceeded
	CodeNotLeader
	_ // 17: retired, never sent; kept so that CodeOther stays 18
	CodeOther
)

// codeToErr is each wire code's sentinel, indexed by code. CodeOf tests
// them in code order, so an error that wraps two sentinels takes the
// lower code — ErrBlockFull over ErrStaleEpoch, say — and takes it on
// every call.
var codeToErr = [...]error{
	CodeNotFound:      ErrNotFound,
	CodeExists:        ErrExists,
	CodeNoCapacity:    ErrNoCapacity,
	CodeBlockFull:     ErrBlockFull,
	CodeEmpty:         ErrEmpty,
	CodeStaleEpoch:    ErrStaleEpoch,
	CodeLeaseExpired:  ErrLeaseExpired,
	CodePermission:    ErrPermission,
	CodeWrongType:     ErrWrongType,
	CodeClosed:        ErrClosed,
	CodeTimeout:       ErrTimeout,
	CodeTooLarge:      ErrTooLarge,
	CodeRedirect:      ErrRedirect,
	CodeBlockLost:     ErrBlockLost,
	CodeQuotaExceeded: ErrQuotaExceeded,
	CodeNotLeader:     ErrNotLeader,
}

// CodeOf maps an error to its wire code. Wrapped sentinels are
// recognized via errors.Is, the lowest code first (codeToErr);
// anything else maps to CodeOther.
func CodeOf(err error) ErrorCode {
	if err == nil {
		return CodeOK
	}
	for code, sentinel := range codeToErr {
		if sentinel != nil && errors.Is(err, sentinel) {
			return ErrorCode(code)
		}
	}
	return CodeOther
}

// ErrOf maps a wire code and its payload back to the error. CodeOther
// yields a generic error carrying msg; CodeOK yields nil.
// CodeQuotaExceeded reconstructs the typed *ThrottleError from the
// diagnostic payload so the retry-after hint survives the wire;
// CodeNotLeader likewise reconstructs *NotLeaderError so the redirect
// hint survives. Only those branches read msg as text, so a plain
// sentinel's answer allocates nothing; an error that keeps msg copies
// it, and msg may be reused once ErrOf returns.
func ErrOf(code ErrorCode, msg []byte) error {
	switch code {
	case CodeOK:
		return nil
	case CodeQuotaExceeded:
		if te := parseThrottle(string(msg)); te != nil {
			return te
		}
	case CodeNotLeader:
		if nl := parseNotLeader(string(msg)); nl != nil {
			return nl
		}
	}
	if int(code) < len(codeToErr) && codeToErr[code] != nil {
		return codeToErr[code]
	}
	if len(msg) == 0 {
		return errors.New("jiffy: remote error")
	}
	return errors.New(string(msg))
}
