package ds

import (
	"fmt"
	"sync"

	"jiffy/internal/core"
)

// Custom data structures (Table 2 of the paper: built-ins plus "Custom
// data structures"). Applications define new structures by
// implementing Partition — the same internal block API the built-ins
// use (getBlock routing stays with the client; writeOp/readOp/deleteOp
// semantics are the partition's Apply) — and registering a constructor
// under a type code. Every process in the deployment (servers, and any
// client embedding the library) must register the same code, exactly
// like the paper's C++ processes all linking the data structure's
// operator implementations.
//
// Custom structures receive file-like elasticity from the controller:
// blocks are chunk-indexed and scale-up appends a fresh block (no
// data movement) — sufficient for log-, set- and sketch-shaped
// structures. Structures needing KV-style rebalancing should build on
// the KV type instead.

// CustomBase is the first type code available to custom structures;
// codes below it are reserved for built-ins.
const CustomBase core.DSType = 64

// Constructor builds a partition instance for one block.
type Constructor func(capacity, numSlots int) Partition

var customReg = struct {
	sync.RWMutex
	byType map[core.DSType]Constructor
	byName map[string]bool
}{
	byType: make(map[core.DSType]Constructor),
	byName: make(map[string]bool),
}

// Register installs a custom data structure under the given type code
// (>= CustomBase) and name. Registration is global to the process and
// must happen before any block of that type is created; duplicate
// codes or names are rejected.
func Register(t core.DSType, name string, ctor Constructor) error {
	if t < CustomBase {
		return fmt.Errorf("ds: custom type code %d collides with built-ins (use >= %d)",
			t, CustomBase)
	}
	if name == "" || ctor == nil {
		return fmt.Errorf("ds: custom registration needs a name and a constructor")
	}
	customReg.Lock()
	defer customReg.Unlock()
	if _, dup := customReg.byType[t]; dup {
		return fmt.Errorf("ds: custom type %d: %w", t, core.ErrExists)
	}
	if customReg.byName[name] {
		return fmt.Errorf("ds: custom type %q: %w", name, core.ErrExists)
	}
	customReg.byType[t] = ctor
	customReg.byName[name] = true
	return nil
}

// IsCustom reports whether t is a registered custom type.
func IsCustom(t core.DSType) bool {
	customReg.RLock()
	defer customReg.RUnlock()
	_, ok := customReg.byType[t]
	return ok
}

// NewCustom instantiates a registered custom partition.
func NewCustom(t core.DSType, capacity, numSlots int) (Partition, error) {
	customReg.RLock()
	ctor, ok := customReg.byType[t]
	customReg.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ds: custom type %d not registered: %w", t, core.ErrWrongType)
	}
	return ctor(capacity, numSlots), nil
}
