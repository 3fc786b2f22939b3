package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/server"
)

// signalCounts reads jiffy_server_scale_signals_total by outcome.
func signalCounts(s *server.Server) (sent, dropped float64) {
	var buf bytes.Buffer
	s.Obs().WritePrometheus(&buf)
	m := obs.ParsePrometheus(buf.Bytes())
	return m[`jiffy_server_scale_signals_total{result="sent"}`],
		m[`jiffy_server_scale_signals_total{result="dropped"}`]
}

// TestDroppedSignalRearms blocks the signal worker inside a controller
// call, fills the signal queue behind it, and checks that the signal
// dropped on the full queue does not leave the block latched: nobody
// will ever answer a dropped signal, so the block must signal again
// the next time it is found past the threshold.
func TestDroppedSignalRearms(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ctrl := rpc.NewServer(rpc.BytesHandler(func(_ context.Context, _ *rpc.ServerConn, method uint16, _ []byte) ([]byte, error) {
		if method != proto.ScaleUp.ID {
			return nil, fmt.Errorf("unexpected method %#x", method)
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return codec.Marshal(proto.ScaleUpResp{})
	}), nil)
	srvSeq++
	ctrlAddr, err := ctrl.Listen(fmt.Sprintf("mem://signal-ctrl-%d", srvSeq))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Options{Config: core.TestConfig(), ControllerAddrs: []string{ctrlAddr}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen(fmt.Sprintf("mem://signal-srv-%d", srvSeq))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	t.Cleanup(func() {
		if !released {
			close(release)
		}
		c.Close()
		s.Close()
		ctrl.Close()
	})

	// A full file chunk: past the high threshold from the first write.
	createBlock(t, c, 1, core.DSFile, nil, 0, nil)
	if _, err := dataOp(c, 1, core.OpFileWrite, ds.U64(0), make([]byte, 64*core.KB)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered: // the worker is now stuck in ScaleUp
	case <-time.After(5 * time.Second):
		t.Fatal("the full chunk never signalled")
	}
	b, err := s.Store().Get(1)
	if err != nil {
		t.Fatal(err)
	}
	// Re-arm by hand to queue one signal per slot behind the worker.
	const queueSlots = 1024
	for i := 0; i < queueSlots; i++ {
		s.Store().ResetSignal(1)
		s.Store().CheckThresholds(b)
	}
	if _, dropped := signalCounts(s); dropped != 0 {
		t.Fatalf("dropped %g signals while the queue had room", dropped)
	}
	s.Store().ResetSignal(1)
	s.Store().CheckThresholds(b) // no slot left: dropped
	s.Store().CheckThresholds(b) // must not be latched by the drop
	if _, dropped := signalCounts(s); dropped != 2 {
		t.Fatalf("dropped = %g, want 2: a dropped signal left the block latched", dropped)
	}

	close(release)
	released = true
	waitSent := func(want float64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			sent, _ := signalCounts(s)
			if sent == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("sent = %g, want %g", sent, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitSent(queueSlots + 1)
	// The drop left the block armed, so it signals once more; that
	// signal is answered, which latches the block until usage leaves
	// the threshold band.
	s.Store().CheckThresholds(b)
	waitSent(queueSlots + 2)
	s.Store().CheckThresholds(b)
	time.Sleep(20 * time.Millisecond)
	if sent, dropped := signalCounts(s); sent != queueSlots+2 || dropped != 2 {
		t.Fatalf("an answered signal re-armed the block: sent=%g dropped=%g", sent, dropped)
	}
}

// TestRefusedAppendAwaitsGrowth: an append refused by a full chunk
// whose over-signal is still in flight waits for the controller's
// answer, which links the chunk to the next one, and is then
// redirected there instead of refused. Close ends such a wait.
func TestRefusedAppendAwaitsGrowth(t *testing.T) {
	next := core.BlockInfo{ID: 2, Server: "mem://next-chunk"}
	for _, closing := range []bool{false, true} {
		t.Run(fmt.Sprintf("close=%v", closing), func(t *testing.T) {
			release := make(chan struct{})
			ctrl := rpc.NewServer(rpc.BytesHandler(func(_ context.Context, _ *rpc.ServerConn, method uint16, _ []byte) ([]byte, error) {
				if method != proto.ScaleUp.ID {
					return nil, fmt.Errorf("unexpected method %#x", method)
				}
				<-release
				return codec.Marshal(proto.ScaleUpResp{Map: ds.PartitionMap{Type: core.DSFile, Epoch: 2,
					Blocks: []ds.PartitionEntry{{Info: core.BlockInfo{ID: 1}}, {Info: next, Chunk: 1}}}})
			}), nil)
			srvSeq++
			ctrlAddr, err := ctrl.Listen(fmt.Sprintf("mem://growth-ctrl-%d", srvSeq))
			if err != nil {
				t.Fatal(err)
			}
			s, err := server.New(server.Options{Config: core.TestConfig(), ControllerAddrs: []string{ctrlAddr}})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := s.Listen(fmt.Sprintf("mem://growth-srv-%d", srvSeq))
			if err != nil {
				t.Fatal(err)
			}
			c, err := rpc.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			released := false
			t.Cleanup(func() {
				if !released {
					close(release)
				}
				c.Close()
				s.Close()
				ctrl.Close()
			})

			// A full chunk: its one write crosses the threshold and signals.
			createBlock(t, c, 1, core.DSFile, nil, 0, nil)
			if _, err := dataOp(c, 1, core.OpFileWrite, ds.U64(0), make([]byte, 64*core.KB)); err != nil {
				t.Fatal(err)
			}
			// Small enough to run inline on the read pump, whence it punts.
			appended := make(chan error, 1)
			var answer []byte
			go func() {
				var err error
				answer, err = c.CallContext(context.Background(), proto.MethodDataOp, ds.AppendRequest(nil, core.OpFileAppend, 1, [][]byte{[]byte("record")}))
				appended <- err
			}()
			select {
			case err := <-appended:
				t.Fatalf("append answered %v while the signal was in flight, want it waiting", err)
			case <-time.After(50 * time.Millisecond):
			}
			if closing {
				go s.Close()
				select {
				case err := <-appended:
					if !errors.Is(err, core.ErrClosed) {
						t.Fatalf("append woken by Close: %v, want ErrClosed", err)
					}
				case <-time.After(time.Second):
					t.Fatal("Close did not end the growth wait")
				}
				return
			}
			close(release)
			released = true
			err = <-appended
			if to, perr := ds.ParseRedirect(answer); !errors.Is(err, core.ErrRedirect) || perr != nil || to != next {
				t.Fatalf("append after the answer: %v to %+v (%v), want a redirect to %+v", err, to, perr, next)
			}
		})
	}
}
