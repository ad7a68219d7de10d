// Package kgcc implements KGCC, the paper's kernel-ready
// bounds-checking compiler derived from Jones & Kelly's BCC (§3.4).
// It has four parts:
//
//   - the runtime: an object map in a splay tree consulted before any
//     memory operation, with the paper's out-of-bounds *peer* objects
//     for temporary out-of-range pointers;
//   - the instrumentation pass: inserts checks into minic IR ahead of
//     every load/store and after pointer arithmetic, then applies the
//     paper's elimination heuristics (statically safe stack accesses,
//     common-subexpression elimination of checks);
//   - the module runtime: charges check costs for Go-implemented
//     kernel modules (btfs) so whole-file-system benchmarks (E7) run
//     with realistic instrumented overhead;
//   - the extension loader: the one module cache, VM setup, id table
//     and kill path that kprobe programs and kucode extensions share.
package kgcc

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/splay"
)

// ObjKind classifies registered objects.
type ObjKind int

// Object kinds.
const (
	KindHeap ObjKind = iota
	KindStack
	KindGlobal
	KindOOB
)

func (k ObjKind) String() string {
	switch k {
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	case KindGlobal:
		return "global"
	case KindOOB:
		return "oob"
	}
	return "?"
}

// Object is one entry in the object map.
type Object struct {
	Base uint64
	Size uint64
	Kind ObjKind
	Name string
	// Peer links an OOB object back to the real object it was
	// derived from ("we insert a special out-of-bounds (OOB) object
	// at the new address into the address map, and make it a peer of
	// object O").
	Peer *Object
}

func (o *Object) contains(addr uint64) bool {
	return addr >= o.Base && addr < o.Base+o.Size
}

// Violation is a detected bounds error.
type Violation struct {
	Addr uint64
	Size int
	Kind string // "unknown-object", "overflow", "oob-deref"
	Obj  *Object
}

func (v *Violation) Error() string {
	if v.Obj != nil {
		return fmt.Sprintf("kgcc: %s: access of %d bytes at %#x (object %q [%#x,+%d))",
			v.Kind, v.Size, v.Addr, v.Obj.Name, v.Obj.Base, v.Obj.Size)
	}
	return fmt.Sprintf("kgcc: %s: access of %d bytes at %#x", v.Kind, v.Size, v.Addr)
}

// ErrViolation matches any bounds violation.
var ErrViolation = errors.New("kgcc: bounds violation")

// Map is the runtime object map: "the BCC runtime environment ...
// maintains a map of currently allocated memory in a splay tree; the
// tree is consulted before any memory operation".
type Map struct {
	tree splay.Tree[*Object]

	// Strict failing checks return errors (module crash); otherwise
	// violations are recorded and execution continues.
	Strict bool

	// AutoDisable implements the paper's §3.5 future-work heuristic:
	// "as code paths execute safely more times and more often, one
	// can state with greater confidence that they are correct. We
	// intend to implement instrumentation that can be deactivated
	// when it has executed a sufficient number of times, reclaiming
	// performance." When positive, once that many checks have run
	// with no violation, subsequent checks are skipped (and only a
	// disabled-check tally is kept). Any violation before the
	// threshold keeps checking enabled forever.
	AutoDisable int64
	// Disabled counts checks skipped by the confidence heuristic.
	Disabled int64

	costs  *sim.Costs
	charge func(sim.Cycles)

	// Stats.
	Checks     int64
	ArithOps   int64
	OOBCreated int64
	Violations []Violation
}

// NewMap creates an object map. costs/charge may be nil.
func NewMap(costs *sim.Costs, charge func(sim.Cycles)) *Map {
	return &Map{Strict: true, costs: costs, charge: charge}
}

// chargeLookup charges the fixed check cost plus the splay work since
// before.
func (m *Map) chargeLookup(before uint64) {
	if m.charge == nil || m.costs == nil {
		return
	}
	nodes := m.tree.Touches - before
	m.charge(m.costs.CheckBase + sim.Cycles(nodes)*m.costs.CheckSplayNode)
}

// Register adds an object to the map. Any stale OOB peers left
// inside the new object's range (from frames or allocations that
// previously occupied this memory) are dropped first: they describe
// pointers into memory that no longer exists, and leaving them in
// place would make a legal access to the new object look like an
// oob-deref when the splay lookup lands on the peer instead of the
// object.
func (m *Map) Register(base, size uint64, kind ObjKind, name string) *Object {
	o := &Object{Base: base, Size: size, Kind: kind, Name: name}
	m.RegisterObj(o)
	return o
}

// RegisterObj inserts a caller-owned object, dropping stale OOB peers
// in its range exactly like Register. Callers that re-register the
// same frame objects on every call (the per-probe-fire hot path) use
// this to keep registration allocation-free.
func (m *Map) RegisterObj(o *Object) {
	if o.Size > 0 {
		for {
			k, old, ok := m.tree.FindFloor(o.Base + o.Size - 1)
			if !ok || k < o.Base || old == nil || old.Kind != KindOOB {
				break
			}
			m.tree.Delete(k)
		}
	}
	m.tree.Insert(o.Base, o)
}

// Unregister removes the object at base, along with nothing else: OOB
// peers of freed objects become dangling and any use is a violation.
func (m *Map) Unregister(base uint64) bool {
	return m.tree.Delete(base)
}

// Find returns the object containing addr, if any.
func (m *Map) Find(addr uint64) *Object {
	base, o, ok := m.tree.FindFloor(addr)
	if !ok || o == nil {
		return nil
	}
	_ = base
	if o.contains(addr) {
		return o
	}
	return nil
}

// Len reports registered objects.
func (m *Map) Len() int { return m.tree.Len() }

func (m *Map) violate(v Violation) error {
	m.Violations = append(m.Violations, v)
	if m.Strict {
		return fmt.Errorf("%w: %s", ErrViolation, v.Error())
	}
	return nil
}

// confident reports whether the auto-disable heuristic has kicked in.
func (m *Map) confident() bool {
	return m.AutoDisable > 0 && len(m.Violations) == 0 && m.Checks >= m.AutoDisable
}

// CheckAccess validates a memory access of size bytes at addr. It is
// the target of instrumented OpCheck instructions.
func (m *Map) CheckAccess(addr uint64, size int) error {
	if m.confident() {
		m.Disabled++
		return nil
	}
	m.Checks++
	// Charged explicitly on every return path (not deferred): this is
	// the per-check hot path and a defer closure costs more than the
	// check's own splay hit in steady state.
	before := m.tree.Touches
	obj := m.Find(addr)
	if obj == nil {
		m.chargeLookup(before)
		return m.violate(Violation{Addr: addr, Size: size, Kind: "unknown-object"})
	}
	if obj.Kind == KindOOB {
		// "Our KGCC runtime permits only pointer arithmetic on OOB
		// objects" — dereferencing one is the bug BCC exists to find.
		m.chargeLookup(before)
		return m.violate(Violation{Addr: addr, Size: size, Kind: "oob-deref", Obj: obj})
	}
	if addr+uint64(size) > obj.Base+obj.Size {
		m.chargeLookup(before)
		return m.violate(Violation{Addr: addr, Size: size, Kind: "overflow", Obj: obj})
	}
	m.chargeLookup(before)
	return nil
}

// PtrArith validates pointer arithmetic deriving `derived` from
// `base`. In-bounds results pass through; out-of-bounds results get
// an OOB peer object registered so later arithmetic can bring them
// back, while dereferences are caught by CheckAccess.
func (m *Map) PtrArith(base, derived uint64) (uint64, error) {
	if m.confident() {
		m.Disabled++
		return derived, nil
	}
	m.ArithOps++
	// Explicit chargeLookup on every return, as in CheckAccess.
	beforeT := m.tree.Touches
	obj := m.Find(base)
	if obj == nil {
		// Arithmetic on a pointer we never saw: BCC flags this.
		m.chargeLookup(beforeT)
		return derived, m.violate(Violation{Addr: base, Size: 0, Kind: "unknown-object"})
	}
	real := obj
	if obj.Kind == KindOOB && obj.Peer != nil {
		real = obj.Peer
	}
	if real.contains(derived) {
		// Back in bounds (or still in bounds): the expression
		// "ptr+i-j" has safely returned to O's bounds.
		m.chargeLookup(beforeT)
		return derived, nil
	}
	// Out of bounds: create (or reuse) the peer at the new address.
	if existing := m.Find(derived); existing != nil {
		if existing.Kind == KindOOB && existing.Peer == real {
			m.chargeLookup(beforeT)
			return derived, nil
		}
		// The derived address aliases another live object. Inserting
		// a peer would clobber that object's map entry, so we skip
		// it — the same blind spot the replacement-based approach
		// has; a dereference through this pointer hits the aliased
		// object and is indistinguishable from a legal access.
		m.chargeLookup(beforeT)
		return derived, nil
	}
	peer := &Object{Base: derived, Size: 1, Kind: KindOOB, Name: real.Name + "+oob", Peer: real}
	m.tree.Insert(derived, peer)
	m.OOBCreated++
	m.chargeLookup(beforeT)
	return derived, nil
}
