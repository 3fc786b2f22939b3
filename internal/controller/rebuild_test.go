package controller

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/clock"
	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/server"
	"jiffy/internal/tier"
)

// The rebuild table: every caller of the chain-rebuild path (rebuild.go)
// — provisioning, a scale-up (a KV split), a KV merge, LoadPrefix, a
// repair splice with survivors, a drain with survivors, the drain of a
// sole replica, and a death with a tier object, a flush copy or no copy
// — against a failure of each of its steps, at chain lengths 1 and 3. A step fails because a
// proxy in front of every memory server refuses its method: CreateBlock
// (place), LoadBlock (fill), UpdateChain (switch); a step a cause does
// not take leaves it as if nothing failed. Each cell asserts the
// outcome, what every key reads back and the recovery counters, and
// after every cell that the allocator, the servers and the metadata
// account for the same blocks, the standby holds what the leader holds
// and no block's data passed through the controller: it fetched no
// snapshot and sent no call of the retired slot relay (ExportSlots,
// ImportEntries).

// rebuildTable holds "outcome data" per cause for a failing step of
// none, place, fill and switch. Outcomes: committed; degraded (committed
// narrower than ChainLength); lost (marked Lost); retried (abandoned
// after the splice restarted, the entry left exactly as it was for a
// later round); error (the call failed and changed nothing). Data is
// what every key reads back: a value, absent, lost, unreachable (at a
// dead server) or none (no prefix).
var rebuildTable = map[string][4]string{
	"provision":   {"committed absent", "error none", "committed absent", "committed absent"},
	"scale-up":    {"committed v1", "error v1", "error v1", "committed v1"},
	"merge":       {"committed v1", "committed v1", "error v1", "committed v1"},
	"load":        {"committed v1", "error v2", "error v2", "committed v1"},
	"splice":      {"committed v1", "degraded v1", "degraded v1", "retried v1"},
	"drain":       {"committed v1", "degraded v1", "degraded v1", "retried v1"},
	"drain-sole":  {"committed v1", "retried v1", "retried v1", "retried v1"},
	"death-tier":  {"committed v1", "lost lost", "lost lost", "retried unreachable"},
	"death-flush": {"committed v1", "lost lost", "lost lost", "retried unreachable"},
	"death-none":  {"lost lost", "lost lost", "lost lost", "lost lost"},
}

var (
	rebuildCauses = []string{"provision", "scale-up", "merge", "load", "splice", "drain",
		"drain-sole", "death-tier", "death-flush", "death-none"}
	rebuildSteps   = []string{"none", "place", "fill", "switch"}
	rebuildRefuses = map[string][]uint16{
		"place":  {proto.CreateBlock.ID},
		"fill":   {proto.LoadBlock.ID},
		"switch": {proto.UpdateChain.ID},
	}
)

// rebuildOutcome is what one cell observed.
type rebuildOutcome struct {
	result, data     string
	recoveries, lost int64 // tier_recoveries and blocks_lost deltas
}

func wantRebuild(cause string, step int) rebuildOutcome {
	w := rebuildOutcome{}
	fmt.Sscan(rebuildTable[cause][step], &w.result, &w.data)
	if w.result == "lost" {
		w.lost = 1
	}
	if cause == "death-tier" && w.result == "committed" {
		w.recoveries = 1
	}
	return w
}

func TestRebuildTable(t *testing.T) {
	for _, cause := range rebuildCauses {
		for _, width := range []int{1, 3} {
			if (cause == "splice" || cause == "drain") && width == 1 {
				continue // no survivors at chain length 1
			}
			for step, name := range rebuildSteps {
				t.Run(fmt.Sprintf("%s/L%d/%s", cause, width, name), func(t *testing.T) {
					got, _ := runRebuildCell(t, cause, width, name, nil)
					if want := wantRebuild(cause, step); got != want {
						t.Errorf("got %+v, want %+v", got, want)
					}
				})
			}
		}
	}
	// A persisted copy that is not the object the manifest recorded — a
	// corrupted one, or a raw partition snapshot as flushes wrote before
	// objects were enveloped — is refused and never restored: the entry
	// is Lost.
	for _, bad := range []string{"corrupt", "raw"} {
		t.Run("death-flush/L1/"+bad+"-object", func(t *testing.T) {
			got, r := runRebuildCell(t, "death-flush", 1, "none", func(r *rebuildRig) {
				key := "ckpt/t/block-0"
				data, err := r.store.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if bad == "corrupt" {
					data[len(data)/2] ^= 0xff
				} else {
					e := r.entries()[0]
					snap, err := rpc.InvokeAt(context.Background(), r.pool, e.ReadTarget().Server,
						proto.SnapshotBlock, proto.SnapshotBlockReq{Block: e.ReadTarget().ID})
					if err != nil {
						t.Fatal(err)
					}
					data = snap.Snapshot
				}
				if err := r.store.Put(key, data); err != nil {
					t.Fatal(err)
				}
			})
			if want := (rebuildOutcome{result: "lost", data: "lost", lost: 1}); got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
			loads := r.proxy.seen(proto.LoadBlock.ID)
			if loads.ok != 0 || !strings.Contains(loads.lastErr, tier.ErrBadObject.Error()) {
				t.Errorf("LoadBlock: %d restored, last error %q; want none restored, %v",
					loads.ok, loads.lastErr, tier.ErrBadObject)
			}
		})
	}
}

// runRebuildCell builds a fresh cluster for one cell, runs the cause
// with the step's methods refused and reports what it observed. tamper,
// when set, runs once the prefix is in place, before any server dies.
func runRebuildCell(t *testing.T, cause string, width int, step string, tamper func(*rebuildRig)) (rebuildOutcome, *rebuildRig) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cfg.ChainLength = width
	if cause == "death-tier" {
		// Demoted by one manual scan, and only by it.
		cfg.TierIdleAfter, cfg.TierCooldown, cfg.TierScanPeriod = time.Second, 0, 0
	}
	r := newRebuildRig(t, cfg, 1)
	// A death or a sole-replica drain needs every member on one server:
	// the home server is alone when the prefix is created, and the rest
	// of the cluster registers afterwards.
	home := strings.HasPrefix(cause, "death") || cause == "drain-sole"
	initial := 4
	if home {
		initial = 1
	}
	for i := 0; i < initial; i++ {
		r.addServer(16)
	}
	if err := r.leader.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	blocks := 1
	if cause == "load" || cause == "merge" {
		blocks = 2
	}
	if cause != "provision" {
		r.create(blocks)
		r.putAll("v1")
	}
	switch cause {
	case "load", "death-flush":
		if _, err := r.leader.FlushPrefix("j/t", "ckpt/t"); err != nil {
			t.Fatal(err)
		}
		if cause == "load" {
			r.putAll("v2")
		}
	case "death-tier":
		r.vclock.Advance(2 * time.Second)
		if n, err := r.servers[0].TierTickNow(); err != nil || n != width {
			t.Fatalf("demoted %d blocks, %v; want %d", n, err, width)
		}
	}
	if home {
		for i := 0; i < 3; i++ {
			r.addServer(16)
		}
	}
	if tamper != nil {
		tamper(r)
	}
	var doomed string
	switch {
	case cause == "splice" || cause == "drain":
		doomed = r.entries()[0].Chain[1].Server
	case home:
		doomed = r.servers[0].Addr()
	}
	r.doomed = doomed
	if cause == "splice" || strings.HasPrefix(cause, "death") {
		r.kill(doomed)
	}

	recoveries, lost := r.leader.tiers.recoveries.Load(), r.leader.blocksLost.Load()
	before := r.counts()
	r.proxy.refuse("", rebuildRefuses[step]...)
	var err error
	switch cause {
	case "provision":
		_, err = r.leader.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV, InitialBlocks: 2})
	case "scale-up":
		_, err = r.leader.ScaleUp(proto.ScaleUpReq{Path: "j/t", Block: r.entries()[0].Info.ID})
	case "merge":
		_, err = r.leader.ScaleDown(proto.ScaleDownReq{Path: "j/t", Block: r.entries()[0].Info.ID})
	case "load":
		_, err = r.leader.LoadPrefix("j/t", "ckpt/t")
	case "drain", "drain-sole":
		_, err = r.leader.DrainServer(doomed)
	default:
		r.leader.FailServer(doomed)
	}
	r.proxy.refuse("")
	r.leader.wg.Wait() // the repairs of servers the cause evicted

	got := rebuildOutcome{result: "committed", data: r.readBack()}
	if err != nil {
		got.result = "error"
		if after := r.counts(); after != before {
			t.Errorf("failed %s changed the cluster: before %s, after %s", cause, before, after)
		}
	} else {
		for _, e := range r.entries() {
			switch {
			case e.Lost:
				got.result = "lost"
			case doomed != "" && entryReferences(e, doomed):
				got.result = "retried"
			case len(e.Replicas()) < width:
				got.result = "degraded"
			}
		}
	}
	got.recoveries = r.leader.tiers.recoveries.Load() - recoveries
	got.lost = r.leader.blocksLost.Load() - lost
	r.assertAccounted()
	r.assertStandbyMatches()
	if snaps := r.proxy.seen(proto.SnapshotBlock.ID); snaps != (proxyCalls{}) {
		t.Errorf("the controller fetched snapshots: %+v; want none, every fill pulled by its target", snaps)
	}
	for _, id := range []uint16{0x0106, 0x0113} {
		if calls := r.proxy.seen(id); calls != (proxyCalls{}) {
			t.Errorf("the controller called the retired slot relay %#x: %+v", id, calls)
		}
	}
	return got, r
}

// rebuildRig is a leader and its standby controllers sharing a persist
// store and a virtual clock, reaching memory servers through a
// methodProxy; the servers reach each other through a second one. The
// test itself talks to the servers directly.
type rebuildRig struct {
	t        *testing.T
	cfg      core.Config
	store    *persist.MemStore
	vclock   *clock.Virtual
	proxy    *methodProxy // the controllers' to the servers
	peers    *methodProxy // the servers' to each other
	pool     *rpc.Pool
	leader   *Controller
	standbys []*Controller
	addrs    []string
	servers  []*server.Server
	killed   map[string]bool
	doomed   string // the server the cell's cause kills or drains
	name     string
}

var rebuildSeq atomic.Int64

func newRebuildRig(t *testing.T, cfg core.Config, standbys int) *rebuildRig {
	t.Helper()
	r := &rebuildRig{
		t:      t,
		cfg:    cfg,
		store:  persist.NewMemStore(),
		vclock: clock.NewVirtual(time.Unix(0, 0)),
		pool:   rpc.NewPool(nil),
		killed: make(map[string]bool),
		name:   fmt.Sprintf("mem://rebuild-%d", rebuildSeq.Add(1)),
	}
	r.proxy = newMethodProxy(t, "proxy")
	r.peers = newMethodProxy(t, "peer")
	t.Cleanup(r.pool.Close)
	var ctrls []*Controller
	for i := 0; i <= standbys; i++ {
		c := r.newController()
		t.Cleanup(func() { c.Close() })
		addr, err := c.Listen(fmt.Sprintf("%s-ctrl-%d", r.name, i))
		if err != nil {
			t.Fatal(err)
		}
		ctrls = append(ctrls, c)
		r.addrs = append(r.addrs, addr)
	}
	for i := len(ctrls) - 1; i >= 0; i-- {
		ctrls[i].ConfigureGroup(r.addrs, i, 0)
	}
	r.leader, r.standbys = ctrls[0], ctrls[1:]
	return r
}

// newController creates a controller on the rig's store, clock and
// proxy.
func (r *rebuildRig) newController() *Controller {
	c, err := New(Options{
		Config: r.cfg, Persist: r.store, Clock: r.vclock, DisableExpiry: true,
		Dial: r.proxy.dial, Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return c
}

// addServer starts and registers a memory server contributing blocks.
func (r *rebuildRig) addServer(blocks int) *server.Server {
	r.t.Helper()
	srv, err := server.New(server.Options{
		Config: r.cfg, ControllerAddrs: r.addrs, Persist: r.store, Clock: r.vclock,
		Dial: r.peers.dial, Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { srv.Close() })
	if _, err := srv.Listen(fmt.Sprintf("%s-srv-%d", r.name, len(r.servers))); err != nil {
		r.t.Fatal(err)
	}
	if err := srv.Register(blocks); err != nil {
		r.t.Fatal(err)
	}
	r.servers = append(r.servers, srv)
	return srv
}

// kill closes the server at addr for good.
func (r *rebuildRig) kill(addr string) {
	for _, srv := range r.servers {
		if srv.Addr() == addr {
			srv.Close()
			r.killed[addr] = true
		}
	}
}

// create provisions the KV prefix j/t with blocks blocks.
func (r *rebuildRig) create(blocks int) {
	r.t.Helper()
	if _, err := r.leader.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV, InitialBlocks: blocks}); err != nil {
		r.t.Fatal(err)
	}
}

// entries is the leader's current partition map of j/t.
func (r *rebuildRig) entries() []ds.PartitionEntry {
	open, err := r.leader.Open("j/t")
	if err != nil {
		return nil
	}
	return open.Map.Blocks
}

// dataOp runs one data op on member, bypassing the proxy.
func (r *rebuildRig) dataOp(member core.BlockInfo, op core.OpType, args ...[]byte) ([][]byte, error) {
	c, err := r.pool.Get(member.Server)
	if err != nil {
		return nil, err
	}
	payload, err := c.Call(proto.MethodDataOp, ds.EncodeRequest(op, member.ID, args))
	if err != nil {
		return nil, err
	}
	return ds.DecodeVals(payload)
}

const rebuildKeys = 8

// putAll writes v under every key, at each key's chain head.
func (r *rebuildRig) putAll(v string) {
	r.t.Helper()
	open, err := r.leader.Open("j/t")
	if err != nil {
		r.t.Fatal(err)
	}
	for i := 0; i < rebuildKeys; i++ {
		key := fmt.Sprintf("k%d", i)
		e, _ := open.Map.BlockForSlot(ds.SlotOf(key, open.Map.NumSlots))
		if _, err := r.dataOp(e.WriteTarget(), core.OpPut, []byte(key), []byte(v)); err != nil {
			r.t.Fatalf("put %s: %v", key, err)
		}
	}
}

// readBack reads every key at its chain tail and reports the one thing
// they all read (see rebuildTable), or "mixed".
func (r *rebuildRig) readBack() string {
	open, err := r.leader.Open("j/t")
	if err != nil {
		return "none"
	}
	seen := ""
	for i := 0; i < rebuildKeys; i++ {
		key := fmt.Sprintf("k%d", i)
		var v string
		e, ok := open.Map.BlockForSlot(ds.SlotOf(key, open.Map.NumSlots))
		switch {
		case !ok:
			v = "unowned"
		case e.Lost:
			v = "lost"
		default:
			vals, err := r.dataOp(e.ReadTarget(), core.OpGet, []byte(key))
			switch {
			case errors.Is(err, core.ErrNotFound):
				v = "absent"
			case err != nil:
				v = "unreachable"
			default:
				v = string(vals[0])
			}
		}
		if seen != "" && v != seen {
			return "mixed"
		}
		seen = v
	}
	return seen
}

// counts is the allocator's free count and every live server's block
// count, as one comparable string.
func (r *rebuildRig) counts() string {
	_, free, _ := r.leader.alloc.Stats()
	s := fmt.Sprintf("free=%d", free)
	for _, srv := range r.servers {
		if !r.killed[srv.Addr()] {
			blocks, _ := srv.Store().Stats()
			s += fmt.Sprintf(" %s=%d", srv.Addr()[len(r.name):], blocks)
		}
	}
	return s
}

// assertAccounted holds the allocator, the servers and the metadata to
// each other: every live server holds exactly the blocks the leader's
// live entries place on it, and the allocator has handed out exactly
// those on the servers it still tracks — no orphan, no leak.
func (r *rebuildRig) assertAccounted() {
	r.t.Helper()
	placed := make(map[string]int)
	for _, sh := range r.leader.shards {
		sh.mu.Lock()
		for _, h := range sh.jobs {
			h.Walk(func(n *hierarchy.Node) bool {
				for _, e := range n.Map.Blocks {
					if !e.Lost {
						for _, m := range e.Replicas() {
							placed[m.Server]++
						}
					}
				}
				return true
			})
		}
		sh.mu.Unlock()
	}
	for _, srv := range r.servers {
		if blocks, _ := srv.Store().Stats(); !r.killed[srv.Addr()] && blocks != placed[srv.Addr()] {
			r.t.Errorf("%s holds %d blocks, the metadata places %d there", srv.Addr(), blocks, placed[srv.Addr()])
		}
	}
	total, free, _ := r.leader.alloc.Stats()
	tracked := 0
	for _, addr := range r.leader.alloc.Servers() {
		tracked += placed[addr]
	}
	if total-free != tracked {
		r.t.Errorf("allocator has %d blocks out, the metadata places %d on its servers", total-free, tracked)
	}
}

// assertStandbyMatches flushes the op-log and compares every standby's
// metadata with the leader's.
func (r *rebuildRig) assertStandbyMatches() {
	r.t.Helper()
	r.leader.PulseNow()
	want := metadataOf(r.t, r.leader)
	for i, s := range r.standbys {
		if diff := divergence(want, metadataOf(r.t, s)); diff != nil {
			r.t.Errorf("standby %d diverges from the leader in %v", i+1, diff)
		}
	}
}

// metadataOf encodes every field of c's state image but the stream
// position (Gen, Seq), one entry per field, maps and sets sorted: what
// every member that applied the same ops must hold alike.
func metadataOf(t *testing.T, c *Controller) map[string][]byte {
	img := c.buildImage()
	sort.Slice(img.Tiers, func(i, j int) bool {
		a, b := img.Tiers[i].Info, img.Tiers[j].Info
		return a.ID < b.ID || a.ID == b.ID && a.Server < b.Server
	})
	out := make(map[string][]byte)
	v := reflect.ValueOf(img)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		var data []byte
		var err error
		switch name {
		case "Gen", "Seq":
			continue
		case "Tenants":
			tenants := make([]string, 0, len(img.Tenants))
			for tenant, q := range img.Tenants {
				tenants = append(tenants, fmt.Sprintf("%s=%+v", tenant, q))
			}
			sort.Strings(tenants)
			data = []byte(strings.Join(tenants, ","))
		default:
			// The field alone, in an otherwise zero image.
			var one groupImage
			reflect.ValueOf(&one).Elem().Field(i).Set(v.Field(i))
			data, err = codec.Marshal(one)
		}
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

// divergence lists, sorted, the image fields in which got differs from
// want (nil when none does).
func divergence(want, got map[string][]byte) []string {
	var diff []string
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			diff = append(diff, name)
		}
	}
	sort.Strings(diff)
	return diff
}

// methodProxy stands in front of every memory server its owner dials:
// it forwards each call upstream, refusing the methods it is told to (on
// one server, or on all) and the calls intercept answers with an error,
// and records per method how many calls succeeded and the last error.
type methodProxy struct {
	t        *testing.T
	tag      string // names the proxies' listeners
	upstream *rpc.Pool

	mu        sync.Mutex
	proxies   map[string]string // server address → its proxy's
	only      string            // refuse on this server only; "" for all
	refused   map[uint16]bool
	intercept func(addr string, method uint16) error
	calls     map[uint16]proxyCalls
}

type proxyCalls struct {
	ok      int
	lastErr string
}

func newMethodProxy(t *testing.T, tag string) *methodProxy {
	p := &methodProxy{t: t, tag: tag, upstream: rpc.NewPool(nil),
		proxies: make(map[string]string), calls: make(map[uint16]proxyCalls)}
	t.Cleanup(p.upstream.Close)
	return p
}

// refuse makes the proxy refuse ids on the server at addr ("" for every
// server); no ids refuses nothing.
func (p *methodProxy) refuse(addr string, ids ...uint16) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.only = addr
	p.refused = make(map[uint16]bool)
	for _, id := range ids {
		p.refused[id] = true
	}
}

// interceptWith makes the proxy pass every call to fn first; a call fn
// answers with an error is refused with it.
func (p *methodProxy) interceptWith(fn func(addr string, method uint16) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.intercept = fn
}

func (p *methodProxy) seen(id uint16) proxyCalls {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[id]
}

func (p *methodProxy) dial(addr string) (*rpc.Client, error) {
	if !strings.Contains(addr, "-srv-") {
		return rpc.Dial(addr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.proxies[addr] == "" {
		proxy := rpc.NewServer(rpc.BytesHandler(func(ctx context.Context, _ *rpc.ServerConn, method uint16, payload []byte) ([]byte, error) {
			p.mu.Lock()
			refused := p.refused[method] && (p.only == "" || p.only == addr)
			intercept := p.intercept
			p.mu.Unlock()
			if refused {
				return nil, fmt.Errorf("injected refusal of %s", proto.MethodName(method))
			}
			if intercept != nil {
				if err := intercept(addr, method); err != nil {
					return nil, err
				}
			}
			var resp []byte
			up, err := p.upstream.Get(addr)
			if err == nil {
				resp, err = up.CallContext(ctx, method, payload)
			}
			p.mu.Lock()
			c := p.calls[method]
			if err != nil {
				c.lastErr = err.Error()
			} else {
				c.ok++
			}
			p.calls[method] = c
			p.mu.Unlock()
			return resp, err
		}), nil)
		bound, err := proxy.Listen(strings.Replace(addr, "-srv-", "-"+p.tag+"-", 1))
		if err != nil {
			return nil, err
		}
		p.t.Cleanup(func() { proxy.Close() })
		p.proxies[addr] = bound
	}
	return rpc.Dial(p.proxies[addr])
}

// TestFillSourceUnreachableFromTarget: a new member that cannot reach
// its live fill source — the servers' proxy answers its SnapshotBlock as
// a dead session would — fails the fill, but the controller still
// reaches the source, so it declares no server dead and evicts neither
// the target nor the source: each cause ends as the rebuild table's
// fill column says.
func TestFillSourceUnreachableFromTarget(t *testing.T) {
	for _, cause := range []string{"splice", "drain", "drain-sole"} {
		t.Run(cause, func(t *testing.T) {
			var pulls atomic.Int64
			got, r := runRebuildCell(t, cause, 3, "none", func(r *rebuildRig) {
				r.peers.interceptWith(func(_ string, method uint16) error {
					if method != proto.SnapshotBlock.ID {
						return nil
					}
					pulls.Add(1)
					return fmt.Errorf("injected: source unreachable: %w", core.ErrClosed)
				})
			})
			if want := wantRebuild(cause, 2); got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
			if pulls.Load() == 0 {
				t.Error("no target pulled from its source")
			}
			if probes := r.proxy.seen(proto.ServerStats.ID); probes.ok == 0 || probes.lastErr != "" {
				t.Errorf("the controller's probes of the source: %+v; want answered, none failed", probes)
			}
			r.assertDead(r.doomed)
		})
	}
}

// TestFillSourceDeadAtFill: a live fill source that dies as its target
// pulls from it is evicted by the controller's own probe, and the splice
// restarts without it; the targets, which answered, stay members, and
// every acknowledged write reads back.
func TestFillSourceDeadAtFill(t *testing.T) {
	for _, cause := range []string{"splice", "drain"} {
		t.Run(cause, func(t *testing.T) {
			var source atomic.Value
			got, r := runRebuildCell(t, cause, 3, "none", func(r *rebuildRig) {
				r.peers.interceptWith(func(addr string, method uint16) error {
					if method != proto.SnapshotBlock.ID || !source.CompareAndSwap(nil, addr) {
						return nil
					}
					r.kill(addr)
					return fmt.Errorf("injected: source died: %w", core.ErrClosed)
				})
			})
			src, _ := source.Load().(string)
			if src == "" {
				t.Fatal("no target pulled from its source")
			}
			if probes := r.proxy.seen(proto.ServerStats.ID); probes.lastErr == "" {
				t.Errorf("the controller's probes of the source: %+v; want one failed", probes)
			}
			if want := (rebuildOutcome{result: "committed", data: "v1"}); got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
			for _, e := range r.entries() {
				if entryReferences(e, src) {
					t.Errorf("entry still on the dead source %s: %+v", src, e)
				}
			}
			r.assertDead(r.doomed, src)
		})
	}
}

// TestSplitDisownIsSequenced: a split's change of ownership is one
// sequenced op at the donor's head, so every member of a chain of 3
// agrees whether a put racing the split was owned. The proxy pauses the
// controller's first call to the donor head's server that is not a
// CreateBlock, and meanwhile a raw put (no client retry) writes a new
// value under a key in the moving range at the head. After the split
// the key reads the new value exactly when that put was acknowledged,
// and the old one otherwise; a put outside the range is then
// acknowledged within a second, and every server closes. If the members
// disowned each on their own, the head would apply a put the middle
// refused, and the split would carry the unacknowledged value along.
func TestSplitDisownIsSequenced(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cfg.ChainLength = 3
	r := newRebuildRig(t, cfg, 0)
	for i := 0; i < 4; i++ {
		r.addServer(16)
	}
	if err := r.leader.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	r.create(1)
	donor := r.entries()[0]
	head := donor.WriteTarget()
	upper := ds.UpperHalf(donor.Slots)
	keyIn := func(in bool) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("key-%d", i)
			slot := ds.SlotOf(k, cfg.NumHashSlots)
			if (slot >= upper[len(upper)-1].Lo) == in {
				return k
			}
		}
	}
	moving, staying := keyIn(true), keyIn(false)
	if _, err := r.dataOp(head, core.OpPut, []byte(moving), []byte("old")); err != nil {
		t.Fatal(err)
	}
	put := func(key, v string, timeout time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		c, err := r.pool.Get(head.Server)
		if err == nil {
			var payload []byte
			if payload, err = c.CallContext(ctx, proto.MethodDataOp, ds.EncodeRequest(core.OpPut, head.ID, [][]byte{[]byte(key), []byte(v)})); err == nil {
				_, err = ds.DecodeVals(payload)
			}
		}
		return err
	}

	paused, resume := make(chan uint16), make(chan struct{})
	var first atomic.Bool
	r.proxy.interceptWith(func(addr string, method uint16) error {
		if addr == head.Server && method != proto.CreateBlock.ID && first.CompareAndSwap(false, true) {
			paused <- method
			<-resume
		}
		return nil
	})
	split := make(chan error, 1)
	go func() {
		_, err := r.leader.ScaleUp(proto.ScaleUpReq{Path: "j/t", Block: head.ID})
		split <- err
	}()
	var putErr error
	select {
	case method := <-paused:
		putErr = put(moving, "new", 5*time.Second)
		t.Logf("paused %s; the racing put answered %v", proto.MethodName(method), putErr)
	case err := <-split:
		t.Fatalf("the split made no call to the donor head's server but CreateBlock: %v", err)
	}
	close(resume)
	if err := <-split; err != nil {
		t.Fatal(err)
	}
	r.proxy.interceptWith(nil)
	if n := len(r.entries()); n != 2 {
		t.Fatalf("%d shards after the split, want 2", n)
	}

	open, err := r.leader.Open("j/t")
	if err != nil {
		t.Fatal(err)
	}
	e, _ := open.Map.BlockForSlot(ds.SlotOf(moving, cfg.NumHashSlots))
	if e.Info.ID == head.ID {
		t.Fatalf("%s did not move", moving)
	}
	want := "old"
	if putErr == nil {
		want = "new"
	}
	if vals, err := r.dataOp(e.ReadTarget(), core.OpGet, []byte(moving)); err != nil || string(vals[0]) != want {
		t.Errorf("after the split %s reads %q, %v; want %q (the racing put answered %v)", moving, vals, err, want, putErr)
	}
	if err := put(staying, "acked", time.Second); err != nil {
		t.Errorf("a put outside the moving range after the split: %v", err)
	}

	closed := make(chan struct{})
	go func() {
		for _, srv := range r.servers {
			srv.Close()
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the servers did not close within 5 s")
	}
}

// assertDead holds the leader's dead set to exactly addrs among the
// rig's servers.
func (r *rebuildRig) assertDead(addrs ...string) {
	r.t.Helper()
	for _, srv := range r.servers {
		want := false
		for _, a := range addrs {
			want = want || a == srv.Addr()
		}
		if got := r.leader.ServerDead(srv.Addr()); got != want {
			r.t.Errorf("%s declared dead = %v, want %v", srv.Addr(), got, want)
		}
	}
}

// TestLoadPrefixFailureKeepsPrefix: a LoadPrefix that fails part-way —
// here the last entry's object is missing from the persist tier — leaves
// the prefix exactly as it was: its data reads back, no block was
// created or freed on any server, and the standby still mirrors the
// leader.
func TestLoadPrefixFailureKeepsPrefix(t *testing.T) {
	for _, width := range []int{1, 3} {
		t.Run(fmt.Sprintf("L%d", width), func(t *testing.T) {
			cfg := core.TestConfig()
			cfg.LeaseDuration = time.Hour
			cfg.ChainLength = width
			r := newRebuildRig(t, cfg, 1)
			for i := 0; i < 4; i++ {
				r.addServer(16)
			}
			if err := r.leader.RegisterJob("j"); err != nil {
				t.Fatal(err)
			}
			r.create(2)
			r.putAll("v1")
			if _, err := r.leader.FlushPrefix("j/t", "ckpt/t"); err != nil {
				t.Fatal(err)
			}
			r.putAll("v2")
			if err := r.store.Delete("ckpt/t/block-1"); err != nil {
				t.Fatal(err)
			}
			before := r.counts()
			if _, err := r.leader.LoadPrefix("j/t", "ckpt/t"); err == nil {
				t.Fatal("LoadPrefix with a missing block object succeeded")
			}
			if got := r.readBack(); got != "v2" {
				t.Errorf("prefix reads %q after the failed load, want its old data v2", got)
			}
			if after := r.counts(); after != before {
				t.Errorf("failed load changed the cluster: before %s, after %s", before, after)
			}
			r.assertAccounted()
			r.assertStandbyMatches()
		})
	}
}

// TestCreatePrefixEvictsUnreachableServer: provisioning that lands on a
// server it cannot reach evicts the server and places elsewhere, as a
// scale-up does, instead of failing the create.
func TestCreatePrefixEvictsUnreachableServer(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newRebuildRig(t, cfg, 1)
	r.addServer(8)
	r.addServer(8)
	gone := r.addServer(32).Addr() // the most free: placed first
	r.kill(gone)
	if err := r.leader.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	resp, err := r.leader.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV, InitialBlocks: 3})
	if err != nil {
		t.Fatalf("create with an unreachable server in the pool: %v", err)
	}
	for _, e := range resp.Map.Blocks {
		if entryReferences(e, gone) {
			t.Errorf("entry placed on the unreachable server: %+v", e)
		}
	}
	if !r.leader.ServerDead(gone) {
		t.Error("unreachable server not evicted")
	}
	r.leader.wg.Wait() // the eviction's repair pass
	r.putAll("v1")
	if got := r.readBack(); got != "v1" {
		t.Errorf("new prefix reads %q, want v1", got)
	}
	r.assertAccounted()
	r.assertStandbyMatches()
}

// TestCreatePrefixRollsBackRejectedCreate: when a server rejects a
// create outright, provisioning fails and deletes what it had already
// created — CreatePrefix and CreateHierarchy alike — so every server's
// block count and the free count are back where they were, and neither
// call leaves a node behind.
func TestCreatePrefixRollsBackRejectedCreate(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newRebuildRig(t, cfg, 1)
	r.addServer(12)
	rejecting := r.addServer(11).Addr() // ties break by address: placed last
	if err := r.leader.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	r.proxy.refuse(rejecting, proto.CreateBlock.ID)
	before := r.counts()
	if _, err := r.leader.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV, InitialBlocks: 3}); err == nil {
		t.Fatal("create succeeded although a server rejected its block")
	}
	if err := r.leader.CreateHierarchy(proto.CreateHierarchyReq{Job: "j",
		Nodes: []proto.DagNode{{Name: "h", Type: core.DSKV, InitialBlocks: 3}}}); err == nil {
		t.Fatal("hierarchy created although a server rejected its block")
	}
	if after := r.counts(); after != before {
		t.Errorf("failed creates changed the cluster: before %s, after %s", before, after)
	}
	if list, err := r.leader.ListPrefixes("j"); err != nil || len(list.Prefixes) != 1 {
		t.Errorf("job lists %+v, %v; want only its root", list.Prefixes, err)
	}
	r.assertAccounted()
	r.assertStandbyMatches()
}
