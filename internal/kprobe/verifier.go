package kprobe

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kcheck"
	"repro/internal/minic"
)

// VerifyError is a static-verifier rejection. Attach surfaces it
// verbatim as the probe_attach diagnostic. PC is the instruction
// index the rejection points at, or -1 for whole-function rules
// (entry signature, malformed control flow discovered structurally).
type VerifyError struct {
	Fn     string
	PC     int
	Reason string
}

func (e *VerifyError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("kprobe: verifier rejected %s: %s", e.Fn, e.Reason)
	}
	return fmt.Sprintf("kprobe: verifier rejected %s at pc %d: %s", e.Fn, e.PC, e.Reason)
}

// helperSig describes one entry of the probe helper ABI: the only
// functions a probe program may call.
type helperSig struct {
	args int
	// mapID is the index of an argument that must be a compile-time
	// constant map id (-1 when the helper takes none), and kind the
	// map kind that id must refer to.
	mapID int
	kind  MapKind
}

// helpers is the probe ABI: read event context, update maps, read
// the virtual clock. Everything else — unit-local functions,
// malloc/free, kernel internals — is outside the sandbox.
var helpers = map[string]helperSig{
	"ctx_pid":    {args: 0, mapID: -1},
	"ctx_nr":     {args: 0, mapID: -1},
	"ctx_arg":    {args: 0, mapID: -1},
	"ctx_cycles": {args: 0, mapID: -1},
	"now":        {args: 0, mapID: -1},
	"map_add":    {args: 3, mapID: 0, kind: MapHash},
	"map_hist":   {args: 3, mapID: 0, kind: MapHist},
}

// helperNames lists the helper ABI, sorted, for diagnostics.
func helperNames() string {
	names := make([]string, 0, len(helpers))
	for n := range helpers {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// verify statically checks fn against the probe sandbox rules:
//
//   - termination: every jump target is strictly forward, so the
//     classic eBPF no-back-edge rule bounds execution by code length
//     (loops must be unrolled or expressed as repeated attachment);
//   - memory safety: every load/store address must be provably inside
//     the bounds of one of the probe's own objects (stack locals or
//     string literals) on every execution;
//   - ABI confinement: calls resolve only against the helper table,
//     with exact arity, and map-id arguments must be compile-time
//     constants naming a declared map of the right kind;
//   - no pointer escape: an address-derived value may not be passed
//     to a helper or returned, so no probe address ever leaves the
//     program.
//
// The memory, constant, and taint facts come from the kcheck
// abstract-interpretation engine — the same facts KGCC's check
// elision consults — so the verifier proves accesses across joins
// and refinements the old linear scan dropped (for example an index
// clamped by branches on both paths). The structural no-back-edge
// rule stays: kcheck can bound many loops, but the probe contract is
// straight-line execution.
//
// The verifier runs after minic.Optimize (constant folding is what
// proves most frame offsets) and before kgcc instrumentation, which
// then adds the dynamic belt-and-braces checks.
func verify(fn *minic.Fn, maps []MapSpec) error {
	if fn.NumParams != 0 {
		return &VerifyError{Fn: fn.Name, PC: -1, Reason: "probe entry must take no parameters (use the ctx_* helpers)"}
	}

	// Pass 1: structural control flow and call targets. All edges
	// forward bounds execution by code length.
	for pc := range fn.Code {
		in := &fn.Code[pc]
		switch in.Op {
		case minic.OpJump, minic.OpBranchZ:
			t := int(in.Imm)
			if t > len(fn.Code) {
				return &VerifyError{fn.Name, pc, fmt.Sprintf("jump target %d out of code range", t)}
			}
			if t <= pc {
				return &VerifyError{fn.Name, pc, fmt.Sprintf("unbounded loop: back-edge to pc %d (probe programs must terminate; unroll the loop)", t)}
			}
		case minic.OpCall:
			h, ok := helpers[in.Sym]
			if !ok {
				return &VerifyError{fn.Name, pc, fmt.Sprintf("call to %q outside the helper ABI (allowed: %s)", in.Sym, helperNames())}
			}
			if len(in.Args) != h.args {
				return &VerifyError{fn.Name, pc, fmt.Sprintf("%s takes %d arguments, got %d", in.Sym, h.args, len(in.Args))}
			}
		}
	}

	// Pass 2: dataflow facts from the kcheck engine. Access proofs are
	// must-facts (hold on every execution reaching the pc); taint is a
	// sticky may-fact, so a register that can ever hold an address
	// stays tainted.
	facts := kcheck.Analyze(fn)

	for pc := range fn.Code {
		in := &fn.Code[pc]
		switch in.Op {
		case minic.OpNop, minic.OpMarker, minic.OpJump, minic.OpBranchZ,
			minic.OpConst, minic.OpStrAddr, minic.OpFrameAddr,
			minic.OpMov, minic.OpUn, minic.OpBin:
		case minic.OpLoad, minic.OpStore:
			what := "load"
			if in.Op == minic.OpStore {
				what = "store"
			}
			af, ok := facts.Access[pc]
			if !ok || (af.Region != kcheck.RegFrame && af.Region != kcheck.RegStr) {
				return &VerifyError{fn.Name, pc, fmt.Sprintf("%s through r%d not provably inside the probe frame (only accesses to probe locals are allowed)", what, in.A)}
			}
			if !af.Proven {
				return &VerifyError{fn.Name, pc, fmt.Sprintf("out-of-range memory access: %s of %d bytes at offset %s of %q (object size %d)", what, af.Size, af.Off, af.ObjName, af.ObjSize)}
			}
		case minic.OpCall:
			h := helpers[in.Sym]
			for i, a := range in.Args {
				if facts.Tainted[a] {
					return &VerifyError{fn.Name, pc, fmt.Sprintf("pointer escape: argument %d of %s is derived from an address", i, in.Sym)}
				}
			}
			if h.mapID >= 0 {
				id, ok := facts.ArgConst(pc, h.mapID)
				if !ok {
					return &VerifyError{fn.Name, pc, fmt.Sprintf("map id argument of %s must be a compile-time constant", in.Sym)}
				}
				if id < 0 || id >= int64(len(maps)) {
					return &VerifyError{fn.Name, pc, fmt.Sprintf("out-of-bounds map id %d: program declares %d map(s)", id, len(maps))}
				}
				if maps[id].Kind != h.kind {
					return &VerifyError{fn.Name, pc, fmt.Sprintf("%s needs a %s map, but map %d (%q) is a %s map", in.Sym, h.kind, id, maps[id].Name, maps[id].Kind)}
				}
			}
		case minic.OpRet:
			if in.A != minic.NoReg && facts.Tainted[in.A] {
				return &VerifyError{fn.Name, pc, "pointer escape: probe returns an address-derived value"}
			}
		default:
			return &VerifyError{fn.Name, pc, fmt.Sprintf("instruction %v not allowed in probe programs", in.Op)}
		}
	}
	return nil
}
