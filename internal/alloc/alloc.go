// Package alloc implements the controller's block allocator and free
// list (§4.2.1): the system-wide record of which fixed-size blocks are
// unassigned, with their physical server locations. Allocation picks
// blocks from the least-loaded servers, mirroring the controller's
// global load view in Pocket/Jiffy.
package alloc

import (
	"fmt"
	"sort"
	"sync"

	"jiffy/internal/core"
)

// Allocator tracks free blocks across the memory-server pool.
type Allocator struct {
	mu sync.Mutex
	// free maps server address → free block IDs on that server.
	free map[string][]core.BlockID
	// totalPerServer remembers each server's contribution.
	totalPerServer map[string]int
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
		free:           make(map[string][]core.BlockID),
		totalPerServer: make(map[string]int),
		suspended:      make(map[string]bool),
		nextID:         1,
	}
}

// RegisterServer adds a memory server contributing n blocks, returning
// the first block ID of its contiguous ID range. Re-registration (same
// address) replaces the old entry — the server restarted and its old
// blocks are gone.
func (a *Allocator) RegisterServer(addr string, n int) (core.BlockID, error) {
	if n <= 0 {
		return 0, fmt.Errorf("alloc: server %q must contribute at least one block", addr)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if old, exists := a.totalPerServer[addr]; exists {
		a.totalBlocks -= old
		a.freeBlocks -= len(a.free[addr])
		delete(a.free, addr)
	}
	first := a.nextID
	ids := make([]core.BlockID, n)
	for i := range ids {
		ids[i] = a.nextID
		a.nextID++
	}
	a.free[addr] = ids
	a.totalPerServer[addr] = n
	a.totalBlocks += n
	a.freeBlocks += n
	return first, nil
}

// RemoveServer drops a server's free blocks from the pool. Blocks
// already allocated from it remain referenced by their prefixes until
// reclaimed through the normal paths.
func (a *Allocator) RemoveServer(addr string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, exists := a.totalPerServer[addr]; !exists {
		return
	}
	a.freeBlocks -= len(a.free[addr])
	a.totalBlocks -= a.totalPerServer[addr]
	delete(a.free, addr)
	delete(a.totalPerServer, addr)
	delete(a.suspended, addr)
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

// Allocate removes n blocks from the free list, preferring the servers
// with the most free capacity (global load balancing). Servers on
// probation (Suspend) are excluded while the healthy pool alone can
// cover the request; when it cannot, the probated servers are used as
// a fallback — a slow server beats ErrNoCapacity. Returns
// ErrNoCapacity without allocating anything when fewer than n blocks
// are free in total.
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
		healthyFree -= len(a.free[addr])
	}
	skipSuspended := healthyFree >= n
	out := make([]core.BlockInfo, 0, n)
	for len(out) < n {
		addr := a.mostFreeLocked(skipSuspended)
		ids := a.free[addr]
		id := ids[len(ids)-1]
		a.free[addr] = ids[:len(ids)-1]
		out = append(out, core.BlockInfo{ID: id, Server: addr})
		a.freeBlocks--
	}
	return out, nil
}

// mostFreeLocked picks the server with the most free blocks,
// tie-breaking by address for determinism. With skipSuspended set,
// probated servers are not considered (the caller guarantees the
// healthy pool is sufficient).
func (a *Allocator) mostFreeLocked(skipSuspended bool) string {
	best, bestN := "", -1
	addrs := make([]string, 0, len(a.free))
	for addr := range a.free {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		if skipSuspended && a.suspended[addr] {
			continue
		}
		if n := len(a.free[addr]); n > bestN {
			best, bestN = addr, n
		}
	}
	return best
}

// Free returns blocks to the pool. Blocks from servers that have since
// been removed are dropped.
func (a *Allocator) Free(blocks []core.BlockInfo) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range blocks {
		if _, exists := a.totalPerServer[b.Server]; !exists {
			continue
		}
		a.free[b.Server] = append(a.free[b.Server], b.ID)
		a.freeBlocks++
	}
}

// Stats reports pool counters.
func (a *Allocator) Stats() (total, free, servers int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.totalBlocks, a.freeBlocks, len(a.totalPerServer)
}

// ServerState is one server's allocator state, as Restore installs it.
type ServerState struct {
	Addr  string
	Total int
	Free  []core.BlockID
}

// Restore replaces the allocator's state (promotion and checkpoint
// restore rebuild it from the controller's metadata).
func (a *Allocator) Restore(servers []ServerState, nextID core.BlockID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = make(map[string][]core.BlockID, len(servers))
	a.totalPerServer = make(map[string]int, len(servers))
	a.totalBlocks = 0
	a.freeBlocks = 0
	for _, s := range servers {
		a.free[s.Addr] = append([]core.BlockID(nil), s.Free...)
		a.totalPerServer[s.Addr] = s.Total
		a.totalBlocks += s.Total
		a.freeBlocks += len(s.Free)
	}
	if nextID > a.nextID {
		a.nextID = nextID
	}
}

// Servers returns the registered server addresses, sorted.
func (a *Allocator) Servers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.totalPerServer))
	for addr := range a.totalPerServer {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}
