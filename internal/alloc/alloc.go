// Package alloc implements the controller's block allocator (§4.2.1):
// how many fixed-size blocks each memory server has unassigned, and the
// ID each placed block gets. Allocation picks blocks from the
// least-loaded servers, mirroring the controller's global load view in
// Pocket/Jiffy. IDs come from one counter and are never handed out
// twice, so a handle to a reclaimed block names an ID no server hosts.
package alloc

import (
	"fmt"
	"sort"
	"sync"

	"jiffy/internal/core"
)

// Allocator tracks free block counts across the memory-server pool and
// mints block IDs.
type Allocator struct {
	mu      sync.Mutex
	servers map[string]*ServerState
	// suspended marks servers on gray-failure probation: their free
	// blocks stay in the pool (the server is alive and its data intact)
	// but Allocate avoids them unless the healthy servers alone cannot
	// satisfy the request.
	suspended   map[string]bool
	nextID      core.BlockID
	totalBlocks int
	freeBlocks  int
}

// New creates an empty allocator.
func New() *Allocator {
	return &Allocator{
		servers:   make(map[string]*ServerState),
		suspended: make(map[string]bool),
		nextID:    1,
	}
}

// RegisterServer adds a memory server contributing n blocks, returning
// its registration mark: the next ID to be minted, so every block
// placed on this registration has an ID at or above it. Re-registration
// (same address) replaces the old entry — the server restarted and its
// old blocks are gone.
func (a *Allocator) RegisterServer(addr string, n int) (core.BlockID, error) {
	if n <= 0 {
		return 0, fmt.Errorf("alloc: server %q must contribute at least one block", addr)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropLocked(addr)
	a.servers[addr] = &ServerState{Addr: addr, Total: n, Free: n, Since: a.nextID}
	a.totalBlocks += n
	a.freeBlocks += n
	return a.nextID, nil
}

// RemoveServer drops a server's free blocks from the pool. Blocks
// already allocated from it remain referenced by their prefixes until
// reclaimed through the normal paths.
func (a *Allocator) RemoveServer(addr string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dropLocked(addr) {
		delete(a.suspended, addr)
	}
}

// dropLocked takes addr's blocks out of the pool; false when addr was
// not registered.
func (a *Allocator) dropLocked(addr string) bool {
	s := a.servers[addr]
	if s == nil {
		return false
	}
	a.totalBlocks -= s.Total
	a.freeBlocks -= s.Free
	delete(a.servers, addr)
	return true
}

// Suspend places addr on probation: Allocate skips it while any
// healthy server can cover the request. Unknown addresses are recorded
// too, so a suspension that races a registration still sticks.
func (a *Allocator) Suspend(addr string) {
	a.mu.Lock()
	a.suspended[addr] = true
	a.mu.Unlock()
}

// Resume lifts addr's probation.
func (a *Allocator) Resume(addr string) {
	a.mu.Lock()
	delete(a.suspended, addr)
	a.mu.Unlock()
}

// Suspended returns the probated server addresses, sorted.
func (a *Allocator) Suspended() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.suspended))
	for addr := range a.suspended {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// Allocate takes n blocks from the pool, each under a freshly minted
// ID, preferring the servers with the most free capacity (global load
// balancing). Servers on probation (Suspend) are excluded while the
// healthy pool alone can cover the request; when it cannot, the
// probated servers are used as a fallback — a slow server beats
// ErrNoCapacity. Returns ErrNoCapacity without allocating anything
// when fewer than n blocks are free in total.
func (a *Allocator) Allocate(n int) ([]core.BlockInfo, error) {
	if n <= 0 {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.freeBlocks < n {
		return nil, fmt.Errorf("alloc: want %d blocks, %d free: %w",
			n, a.freeBlocks, core.ErrNoCapacity)
	}
	healthyFree := a.freeBlocks
	for addr := range a.suspended {
		if s := a.servers[addr]; s != nil {
			healthyFree -= s.Free
		}
	}
	skipSuspended := healthyFree >= n
	out := make([]core.BlockInfo, 0, n)
	for len(out) < n {
		s := a.mostFreeLocked(skipSuspended)
		s.Free--
		out = append(out, core.BlockInfo{ID: a.nextID, Server: s.Addr})
		a.nextID++
	}
	a.freeBlocks -= n
	return out, nil
}

// mostFreeLocked picks the server with the most free blocks,
// tie-breaking by address for determinism. With skipSuspended set,
// probated servers are not considered (the caller guarantees the
// healthy pool is sufficient).
func (a *Allocator) mostFreeLocked(skipSuspended bool) *ServerState {
	addrs := make([]string, 0, len(a.servers))
	for addr := range a.servers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	var best *ServerState
	for _, addr := range addrs {
		if skipSuspended && a.suspended[addr] {
			continue
		}
		if s := a.servers[addr]; best == nil || s.Free > best.Free {
			best = s
		}
	}
	return best
}

// Free returns blocks to the pool; their IDs are not minted again.
// Blocks from servers that have since been removed, or placed before
// the server's current registration, died with their server and are
// dropped.
func (a *Allocator) Free(blocks []core.BlockInfo) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range blocks {
		if s := a.servers[b.Server]; s != nil && b.ID >= s.Since {
			s.Free++
			a.freeBlocks++
		}
	}
}

// Stats reports pool counters.
func (a *Allocator) Stats() (total, free, servers int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.totalBlocks, a.freeBlocks, len(a.servers)
}

// ServerState is one registered server's share of the pool.
type ServerState struct {
	Addr        string
	Total, Free int
	// Since is the registration mark (see RegisterServer).
	Since core.BlockID
}

// Restore replaces the allocator's state (promotion and checkpoint
// restore rebuild it from the controller's metadata). The ID counter
// only moves up: nextID must be above every ID the metadata names.
func (a *Allocator) Restore(servers []ServerState, nextID core.BlockID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.servers = make(map[string]*ServerState, len(servers))
	a.totalBlocks = 0
	a.freeBlocks = 0
	for _, s := range servers {
		a.servers[s.Addr] = &s
		a.totalBlocks += s.Total
		a.freeBlocks += s.Free
	}
	if nextID > a.nextID {
		a.nextID = nextID
	}
}

// Servers returns the registered server addresses, sorted.
func (a *Allocator) Servers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.servers))
	for addr := range a.servers {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}
