package server_test

import (
	"bytes"
	"context"
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
