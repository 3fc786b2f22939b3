package faultinject

import (
	"net"

	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// Conn is a net.Conn carrying fault injection on both directions. It
// wraps either transport under internal/wire — TCP sockets and the
// in-process mem:// pipes both arrive here as plain net.Conn.
//
// Send-side faults act at Write granularity: the framed protocol
// flushes one frame per Write for frames under the 64KB buffer, so a
// swallowed Write is a cleanly dropped message. A drop that lands on a
// partial large frame corrupts the stream instead, which surfaces as a
// connection error — also a legitimate fault, just a louder one.
type Conn struct {
	net.Conn
	inj       *Injector
	endpoint  string
	owner     string
	sendLabel string
	recvLabel string
}

// WrapConnAs wraps nc with fault injection; endpoint names the remote
// (typically the dialed address) and appears in the point labels
// "send:<endpoint>" / "recv:<endpoint>" rules match against. owner tags
// the dialing party (a server or client address), making the conn
// subject to directed partitions installed with PartitionOneWay(owner,
// ...); a conn with an empty owner never matches a PartitionOneWay with
// a non-empty from.
func (i *Injector) WrapConnAs(owner, endpoint string, nc net.Conn) net.Conn {
	c := &Conn{
		Conn:      nc,
		inj:       i,
		endpoint:  endpoint,
		owner:     owner,
		sendLabel: "send:" + endpoint,
		recvLabel: "recv:" + endpoint,
	}
	i.mu.Lock()
	i.conns[c] = struct{}{}
	i.mu.Unlock()
	return c
}

// Write implements net.Conn with send-side faults: injected latency,
// bandwidth throttling, one-way partitions and probabilistic drops (the
// bytes are swallowed and success reported — the peer simply never
// hears the message), and connection resets.
func (c *Conn) Write(p []byte) (int, error) {
	d := c.inj.decide(c.sendLabel, len(p))
	c.inj.sleep(d.Delay)
	if d.Reset {
		c.Close()
		return 0, injectedErr("reset", c.endpoint)
	}
	if d.Drop || c.inj.blocked(c.sendLabel, c.owner) {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// Read implements net.Conn with receive-side faults: injected latency,
// bandwidth throttling and resets. Drops are send-side only —
// discarding bytes out of a live stream would desynchronize the framing
// rather than model a lost message.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		return n, err
	}
	d := c.inj.decide(c.recvLabel, n)
	c.inj.sleep(d.Delay)
	if d.Reset {
		c.Close()
		return 0, injectedErr("reset", c.endpoint)
	}
	return n, nil
}

// Close removes the conn from the injector's registry and closes the
// underlying transport.
func (c *Conn) Close() error {
	c.inj.mu.Lock()
	delete(c.inj.conns, c)
	c.inj.mu.Unlock()
	return c.Conn.Close()
}

// DialNet dials addr through the wire transports (TCP or mem://) and
// wraps the result — a drop-in replacement for wire.Dial.
func (i *Injector) DialNet(addr string) (net.Conn, error) {
	return i.DialNetAs("", addr)
}

// DialNetAs is DialNet with an owner tag (see WrapConnAs).
func (i *Injector) DialNetAs(owner, addr string) (net.Conn, error) {
	nc, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return i.WrapConnAs(owner, addr, nc), nil
}

// Dial is an rpc-level dial function routing every connection through
// the injector; plug it into client.Options.Dial, controller/server
// Options.Dial, or jiffy.ClusterOptions.Dial to subject a whole
// deployment to the fault plan.
func (i *Injector) Dial(addr string) (*rpc.Client, error) {
	nc, err := i.DialNet(addr)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(wire.NewConn(nc)), nil
}

// DialAs returns an rpc-level dial function whose connections carry the
// given owner tag, so directed partitions installed with
// PartitionOneWay(owner, ...) apply to them.
func (i *Injector) DialAs(owner string) func(string) (*rpc.Client, error) {
	return func(addr string) (*rpc.Client, error) {
		nc, err := i.DialNetAs(owner, addr)
		if err != nil {
			return nil, err
		}
		return rpc.NewClient(wire.NewConn(nc)), nil
	}
}
