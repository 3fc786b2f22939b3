package obs

import (
	"fmt"
	"io"
)

// methodGroups/methodSlots shape the per-method stats table. Jiffy's
// method identifiers are grouped by high byte (0x00xx controller plane,
// 0x01xx data plane) with small low-byte offsets, so a fixed
// [2][64] array indexed by (method>>8, method&0x3f) gives lock-free
// per-method slots without a map lookup on the hot path.
const (
	methodGroups = 2
	methodSlots  = 64
)

// MethodStats holds the per-method RPC instrumentation: request and
// error counts, bytes in/out, calls in flight, and a latency histogram
// in microseconds.
type MethodStats struct {
	Requests Counter
	Errors   Counter
	BytesIn  Counter
	BytesOut Counter
	InFlight Gauge
	Latency  Histogram
}

// RPCMetrics is one side's view of the RPC plane — role is "client"
// for outbound calls and "server" for inbound dispatch. Retries and
// Redirects are client-side only (pipeline backoffs and ErrRedirect
// follows); they stay zero on servers.
type RPCMetrics struct {
	Role      string
	Retries   Counter
	Redirects Counter

	methods [methodGroups][methodSlots]MethodStats
}

// NewRPCMetrics creates a stats table for the given role.
func NewRPCMetrics(role string) *RPCMetrics { return &RPCMetrics{Role: role} }

// Method returns the stats slot for a method identifier. Never nil;
// identifiers outside the known groups alias into the table rather
// than allocating.
func (m *RPCMetrics) Method(method uint16) *MethodStats {
	return &m.methods[(method>>8)%methodGroups][method%methodSlots]
}

// Register attaches the table to a registry. nameOf maps method
// identifiers to human-readable names (proto.MethodName); slots with
// no traffic are skipped at scrape time so the exposition stays small.
func (m *RPCMetrics) Register(r *Registry, nameOf func(uint16) string) {
	r.RegisterCollector(func(w io.Writer) { m.write(w, nameOf) })
}

func (m *RPCMetrics) write(w io.Writer, nameOf func(uint16) string) {
	WriteHeader(w, "jiffy_rpc_requests_total", "RPC requests by method.", "counter")
	m.eachActive(nameOf, func(labels string, s *MethodStats) {
		WriteSample(w, "jiffy_rpc_requests_total", labels, s.Requests.Value())
	})
	WriteHeader(w, "jiffy_rpc_errors_total", "RPC errors by method.", "counter")
	m.eachActive(nameOf, func(labels string, s *MethodStats) {
		WriteSample(w, "jiffy_rpc_errors_total", labels, s.Errors.Value())
	})
	WriteHeader(w, "jiffy_rpc_bytes_in_total", "RPC payload bytes received by method.", "counter")
	m.eachActive(nameOf, func(labels string, s *MethodStats) {
		WriteSample(w, "jiffy_rpc_bytes_in_total", labels, s.BytesIn.Value())
	})
	WriteHeader(w, "jiffy_rpc_bytes_out_total", "RPC payload bytes sent by method.", "counter")
	m.eachActive(nameOf, func(labels string, s *MethodStats) {
		WriteSample(w, "jiffy_rpc_bytes_out_total", labels, s.BytesOut.Value())
	})
	WriteHeader(w, "jiffy_rpc_in_flight", "RPC calls currently in flight by method.", "gauge")
	m.eachActive(nameOf, func(labels string, s *MethodStats) {
		WriteSample(w, "jiffy_rpc_in_flight", labels, s.InFlight.Value())
	})
	WriteHeader(w, "jiffy_rpc_latency_usec", "RPC latency in microseconds by method.", "histogram")
	m.eachActive(nameOf, func(labels string, s *MethodStats) {
		WriteHistogram(w, "jiffy_rpc_latency_usec", labels, &s.Latency)
	})
	WriteHeader(w, "jiffy_rpc_retries_total", "Client-side RPC retries.", "counter")
	WriteSample(w, "jiffy_rpc_retries_total", fmt.Sprintf("{role=%q}", m.Role), m.Retries.Value())
	WriteHeader(w, "jiffy_rpc_redirects_total", "Client-side redirect follows.", "counter")
	WriteSample(w, "jiffy_rpc_redirects_total", fmt.Sprintf("{role=%q}", m.Role), m.Redirects.Value())
}

// eachActive visits every method slot that has seen traffic, in table
// order, with its preformatted label block.
func (m *RPCMetrics) eachActive(nameOf func(uint16) string, fn func(labels string, s *MethodStats)) {
	for g := 0; g < methodGroups; g++ {
		for i := 0; i < methodSlots; i++ {
			s := &m.methods[g][i]
			if s.Requests.Value() == 0 && s.Latency.Count() == 0 && s.InFlight.Value() == 0 {
				continue
			}
			method := uint16(g)<<8 | uint16(i)
			name := fmt.Sprintf("0x%04x", method)
			if nameOf != nil {
				if n := nameOf(method); n != "" {
					name = n
				}
			}
			fn(fmt.Sprintf("{role=%q,method=%q}", m.Role, name), s)
		}
	}
}
