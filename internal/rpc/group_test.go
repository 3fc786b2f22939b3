package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/wire"
)

// groupMember is one scripted controller: answer decides what its n-th
// call (counting from 1) returns. A nil answer leaves the address dead.
type groupMember struct {
	addr   string
	calls  atomic.Int32
	answer func(n int32) ([]byte, error)
}

var groupSeq atomic.Int32

// newGroup boots the scripted members behind a Group with a budget of
// eight attempts. With waits non-nil the group counts its between-attempt
// waits there (the shape of the client's backoff: return when ctx ends);
// with waits nil it has no wait at all, like the memory server's.
func newGroup(t *testing.T, waits *atomic.Int32, answers ...func(n int32) ([]byte, error)) (*Group, []*groupMember) {
	t.Helper()
	seq := groupSeq.Add(1)
	var members []*groupMember
	var addrs []string
	for i, answer := range answers {
		m := &groupMember{addr: fmt.Sprintf("mem://grp-%d-%d", seq, i), answer: answer}
		members = append(members, m)
		addrs = append(addrs, m.addr)
		if answer == nil {
			continue
		}
		srv := NewServer(BytesHandler(func(context.Context, *ServerConn, uint16, []byte) ([]byte, error) {
			return m.answer(m.calls.Add(1))
		}), nil)
		if _, err := srv.Listen(m.addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	pool := NewPool(WithTimeout(nil, 40*time.Millisecond))
	t.Cleanup(pool.Close)
	var wait func(context.Context, int) error
	if waits != nil {
		wait = func(ctx context.Context, _ int) error {
			waits.Add(1)
			return ctx.Err()
		}
	}
	return NewGroup(pool, addrs, 8, wait), members
}

func groupOK(int32) ([]byte, error) { return []byte("ok"), nil }

// redirectTo answers like a standby that believes leader leads.
func redirectTo(leader string) func(int32) ([]byte, error) {
	return func(int32) ([]byte, error) {
		nl := &core.NotLeaderError{Leader: leader, Gen: 3}
		return []byte(nl.Error()), nl
	}
}

func wantCalls(t *testing.T, members []*groupMember, want ...int32) {
	t.Helper()
	for i, m := range members {
		if got := m.calls.Load(); got != want[i] {
			t.Errorf("member %d served %d calls, want %d", i, got, want[i])
		}
	}
}

// TestGroupCaller scripts the controller group's members and pins every
// branch of the one leader-following loop, once with a between-attempt
// wait (the client) and once with none (the memory server's workers).
func TestGroupCaller(t *testing.T) {
	for _, withWait := range []bool{true, false} {
		var waits *atomic.Int32
		if withWait {
			waits = new(atomic.Int32)
		}
		// wantWaits checks the wait count of the variant that has one.
		wantWaits := func(t *testing.T, want int32) {
			t.Helper()
			if waits == nil {
				return
			}
			if got := waits.Swap(0); got != want {
				t.Errorf("waited %d times, want %d", got, want)
			}
		}
		ctx := context.Background()
		t.Run(fmt.Sprintf("wait=%v", withWait), func(t *testing.T) {
			t.Run("hint followed with no wait", func(t *testing.T) {
				var hinted string
				g, m := newGroup(t, waits,
					func(n int32) ([]byte, error) { return redirectTo(hinted)(n) }, groupOK, groupOK)
				hinted = m[2].addr
				if out, err := groupCall(ctx, g); err != nil || string(out) != "ok" {
					t.Fatalf("call = %q, %v", out, err)
				}
				wantCalls(t, m, 1, 0, 1)
				wantWaits(t, 0)
				// The hinted member is remembered as the leader.
				if _, err := groupCall(ctx, g); err != nil {
					t.Fatal(err)
				}
				wantCalls(t, m, 1, 0, 2)
				if g.Rehomes.Value() != 1 {
					t.Errorf("rehomes = %d, want 1", g.Rehomes.Value())
				}
			})

			t.Run("hint to self or unknown goes round-robin", func(t *testing.T) {
				var self string
				g, m := newGroup(t, waits,
					func(n int32) ([]byte, error) { return redirectTo(self)(n) },
					redirectTo("mem://nobody"), redirectTo(""), groupOK)
				self = m[0].addr
				if _, err := groupCall(ctx, g); err != nil {
					t.Fatal(err)
				}
				wantCalls(t, m, 1, 1, 1, 1)
				wantWaits(t, 3)
			})

			t.Run("conn error drops the session and moves on", func(t *testing.T) {
				g, m := newGroup(t, waits, nil, groupOK)
				if _, err := groupCall(ctx, g); err != nil {
					t.Fatal(err)
				}
				wantCalls(t, m, 0, 1)
				wantWaits(t, 1)

				// A live session that times out is closed, not left pooled.
				release := make(chan struct{})
				defer close(release)
				g, m = newGroup(t, waits, func(int32) ([]byte, error) { <-release; return nil, nil }, groupOK)
				silent, err := g.pool.Get(m[0].addr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := groupCall(ctx, g); err != nil {
					t.Fatal(err)
				}
				if !silent.IsClosed() {
					t.Error("timed-out session still open after the re-home")
				}
				wantWaits(t, 1)
			})

			t.Run("one timeout per member then the error", func(t *testing.T) {
				release := make(chan struct{})
				defer close(release)
				hang := func(int32) ([]byte, error) { <-release; return nil, nil }
				g, m := newGroup(t, waits, hang, hang, hang)
				start := time.Now()
				_, err := groupCall(ctx, g)
				if !errors.Is(err, core.ErrTimeout) {
					t.Fatalf("err = %v, want ErrTimeout", err)
				}
				wantCalls(t, m, 1, 1, 1)
				wantWaits(t, 2)
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("three 40ms timeouts took %v", d)
				}
			})

			t.Run("operation-level error surfaced", func(t *testing.T) {
				g, m := newGroup(t, waits,
					func(int32) ([]byte, error) { return nil, fmt.Errorf("no such job: %w", core.ErrNotFound) }, groupOK)
				if _, err := groupCall(ctx, g); !errors.Is(err, core.ErrNotFound) {
					t.Fatalf("err = %v, want ErrNotFound", err)
				}
				wantCalls(t, m, 1, 0)
				wantWaits(t, 0)
			})

			t.Run("budget exhausted", func(t *testing.T) {
				g, m := newGroup(t, waits, redirectTo(""), redirectTo(""))
				_, err := groupCall(ctx, g)
				if !errors.Is(err, core.ErrNotLeader) {
					t.Fatalf("err = %v, want the last redirect", err)
				}
				wantCalls(t, m, 4, 4)
				wantWaits(t, 8)
			})

			t.Run("ctx cancel", func(t *testing.T) {
				cctx, cancel := context.WithCancel(ctx)
				defer cancel()
				g, m := newGroup(t, waits, redirectTo(""), func(n int32) ([]byte, error) {
					cancel()
					return redirectTo("")(n)
				})
				if _, err := groupCall(cctx, g); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if n := m[0].calls.Load() + m[1].calls.Load(); n > 3 {
					t.Errorf("%d calls after the cancel", n)
				}
				if waits != nil {
					waits.Store(0)
				}
			})
		})
	}
}

// groupCall is one call through g with the answer copied out and its
// pooled body returned.
func groupCall(ctx context.Context, g *Group) ([]byte, error) {
	out, pooled, err := g.CallBorrowedContext(ctx, 1, nil)
	owned := append([]byte(nil), out...)
	if pooled {
		wire.PutBuf(out)
	}
	return owned, err
}

// TestGroupBorrowedRedirectKeepsHint: a NotLeader redirect reaches a
// caller on the borrowed path (Invoke through a Group) with its hint
// and generation intact after the group has returned the answer's
// pooled body, even once the pool has handed that memory out and
// overwritten it (under -tags jiffydebug, also poisoned).
func TestGroupBorrowedRedirectKeepsHint(t *testing.T) {
	redirect := &core.NotLeaderError{Leader: "mem://grp-elsewhere", Gen: 9}
	g, members := newGroup(t, nil, func(int32) ([]byte, error) { return []byte(redirect.Error()), redirect })
	_, err := Invoke(context.Background(), g, proto.RenewLease, proto.RenewLeaseReq{Paths: []core.Path{"j/t"}})
	if !errors.Is(err, core.ErrNotLeader) {
		t.Fatalf("err = %v, want a NotLeader redirect", err)
	}
	if n := members[0].calls.Load(); n != 8 {
		t.Fatalf("the member answered %d calls, want the group's 8 attempts", n)
	}
	// Take out more buffers than the call returned, overwrite each to
	// its capacity and give them back.
	var bufs [16][]byte
	for i := range bufs {
		b := wire.GetBuf()
		bufs[i] = b[:copy(b[:cap(b)], bytes.Repeat([]byte{'x'}, cap(b)))]
	}
	for _, b := range bufs {
		wire.PutBuf(b)
	}
	if hint, gen := core.LeaderHintOf(err); hint != redirect.Leader || gen != redirect.Gen {
		t.Errorf("redirect hint = %q gen %d after the body went back, want %q gen %d (%v)",
			hint, gen, redirect.Leader, redirect.Gen, err)
	}
}
