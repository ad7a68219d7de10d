package kprobe

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kgcc"
	"repro/internal/minic"
)

// Module admission: the compile-and-verify half of Attach, split out
// so user space can run it ahead of time (ktap -emit) and ship the
// encoded module.

// SpecKey derives the content-hash cache key for a spec, in either
// form. It covers everything admission looks at — entry, the source
// text or the module bytes, and the declared map signature (map ids
// and kinds are verified statically) — because a cache hit skips
// admission: the same bytes attached under a different entry are a
// different admission that must re-verify. It deliberately excludes
// the tracepoint: the same program attached at another site is the
// same module. ktap names its -cachedir files by this key.
func SpecKey(spec Spec) minic.CacheKey {
	parts := []string{"kprobe-module-v1", spec.entry(), spec.Source}
	if len(spec.Module) > 0 {
		parts = []string{"kprobe-module-blob-v1", spec.entry(), string(spec.Module)}
	}
	for _, ms := range spec.Maps {
		parts = append(parts, fmt.Sprintf("%s:%s", ms.Name, ms.Kind))
	}
	return minic.HashParts(parts...)
}

// BuildModule runs the full admission pipeline on a source spec:
// parse, optimize (constant folding feeds the verifier's map-id and
// frame-offset proofs), statically verify the entry function,
// instrument with full KGCC checks, and compile to bytecode. The
// returned module is what the kernel caches and every VM executes;
// SrcInsns records the pre-instrumentation instruction count that
// attach-time verification charges for.
func BuildModule(spec Spec) (*minic.Module, error) {
	a, err := admitSource(spec)
	return a.Mod, err
}

// admit is Attach's admission function for either spec form. A
// source rejection by the verifier carries the instructions it
// analyzed; decode and module-verify rejections analyzed nothing.
func admit(spec Spec) (kgcc.Admission, error) {
	if len(spec.Module) == 0 {
		return admitSource(spec)
	}
	mod, err := minic.DecodeModule(spec.Module)
	if err != nil {
		return kgcc.Admission{}, fmt.Errorf("kprobe: %w", err)
	}
	if err := verifyModule(mod, spec.entry(), spec.Maps); err != nil {
		return kgcc.Admission{}, err
	}
	return kgcc.Admission{Mod: mod, Insns: mod.SrcInsns}, nil
}

func admitSource(spec Spec) (kgcc.Admission, error) {
	entry := spec.entry()
	unit, err := minic.CompileSource(spec.Source)
	if err != nil {
		return kgcc.Admission{}, fmt.Errorf("kprobe: compile: %w", err)
	}
	fn := unit.Fn(entry)
	if fn == nil {
		return kgcc.Admission{}, fmt.Errorf("kprobe: entry function %q not defined", entry)
	}
	minic.Optimize(fn)
	insns := len(fn.Code)
	if err := verify(fn, spec.Maps); err != nil {
		return kgcc.Admission{Insns: insns}, err
	}
	kgcc.Instrument(fn, kgcc.FullChecks())
	mod, err := minic.CompileUnit(unit)
	if err != nil {
		return kgcc.Admission{Insns: insns}, fmt.Errorf("kprobe: %w", err)
	}
	mod.SrcInsns = insns
	return kgcc.Admission{Mod: mod, Insns: insns}, nil
}

// verifyModule structurally admits a pre-compiled module: the entry
// must exist with no parameters, every jump (fused branches included)
// must be strictly forward (the eBPF no-back-edge termination rule,
// directly checkable on bytecode), every call must resolve against
// the helper ABI with exact arity, and every memory access in the
// entry function must carry its own KGCC check — the VM consults the
// object map only through check opcodes, so an access without an
// adjacent, unbypassable check would be free to touch the whole
// shared probe address space (minic.FirstUncheckedAccess documents
// the exact rule). BuildModule always instruments with FullChecks,
// so every artifact it emits passes; handcrafted checkless bytecode
// is rejected here, before it ever attaches. Only the entry needs
// coverage: unit-internal calls are rejected outright below, so no
// other function in the module can execute. Map-id validity is
// enforced by the helpers at call time.
func verifyModule(m *minic.Module, entry string, maps []MapSpec) error {
	efc := m.Fn(entry)
	if efc == nil {
		return fmt.Errorf("kprobe: entry function %q not defined", entry)
	}
	if efc.NumParams != 0 {
		return &VerifyError{Fn: entry, PC: -1, Reason: "probe entry must take no parameters (use the ctx_* helpers)"}
	}
	if gap := efc.FirstUncheckedAccess(); gap != nil {
		return &VerifyError{Fn: entry, PC: gap.PC, Reason: gap.Reason}
	}
	for _, fc := range m.Funcs {
		for pc := range fc.Code {
			in := &fc.Code[pc]
			backEdge := func(to int64) error {
				return &VerifyError{fc.Name, pc, fmt.Sprintf("unbounded loop: back-edge to pc %d (probe programs must terminate; unroll the loop)", to)}
			}
			switch {
			case in.Op == minic.VJump || in.Op == minic.VBrz ||
				(in.Op >= minic.VBrEq && in.Op <= minic.VBrGe):
				if int(in.Imm) <= pc {
					return backEdge(in.Imm)
				}
			case in.Op >= minic.VBrEqI && in.Op <= minic.VBrGeI:
				if int(in.Dst) <= pc {
					return backEdge(int64(in.Dst))
				}
			case in.Op == minic.VCall:
				if in.Imm >= 0 {
					// Unit-internal calls are outside the probe sandbox,
					// same as in the source verifier.
					return &VerifyError{fc.Name, pc, fmt.Sprintf("call to %q outside the helper ABI (allowed: %s)", m.Funcs[in.Imm].Name, helperNames())}
				}
				name := m.Builtins[-(in.Imm + 1)]
				h, ok := helpers[name]
				if !ok {
					return &VerifyError{fc.Name, pc, fmt.Sprintf("call to %q outside the helper ABI (allowed: %s)", name, helperNames())}
				}
				if int(in.B) != h.args {
					return &VerifyError{fc.Name, pc, fmt.Sprintf("%s takes %d arguments, got %d", name, h.args, in.B)}
				}
			}
		}
	}
	return nil
}

func helperNames() string {
	names := make([]string, 0, len(helpers))
	for n := range helpers {
		names = append(names, n)
	}
	// Deterministic diagnostic.
	sort.Strings(names)
	return strings.Join(names, ", ")
}
