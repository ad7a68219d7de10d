package kprobe

import (
	"strings"
	"testing"

	"repro/internal/minic"
)

// compileProbe compiles and optimizes src, returning the fn named
// "probe" (mirroring the Attach pipeline up to verification).
func compileProbe(t *testing.T, src string) *minic.Fn {
	t.Helper()
	u, err := minic.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fn := u.Fn("probe")
	if fn == nil {
		t.Fatalf("no probe function in %q", src)
	}
	minic.Optimize(fn)
	return fn
}

// TestVerifierDiagnostics pins every diagnostic the verifier can
// emit: each rejection must carry the function name, a consistent
// instruction index, and the exact message fragment users grep for.
func TestVerifierDiagnostics(t *testing.T) {
	oneHash := []MapSpec{{Name: "m", Kind: MapHash}}
	cases := []struct {
		name    string
		src     string // compiled when non-empty
		fn      *minic.Fn
		maps    []MapSpec
		want    string
		fnLevel bool // expect PC == -1 and no "at pc" in Error()
	}{
		{
			name:    "entry with parameters",
			src:     `int probe(int x) { return x; }`,
			want:    "probe entry must take no parameters (use the ctx_* helpers)",
			fnLevel: true,
		},
		{
			name: "jump target out of range",
			fn: &minic.Fn{Name: "probe", Code: []minic.Instr{
				{Op: minic.OpJump, Imm: 99},
			}},
			want: "jump target 99 out of code range",
		},
		{
			name: "back edge",
			src:  `int probe() { int i; i = 0; while (i < 3) { i = i + 1; } return i; }`,
			want: "unbounded loop: back-edge to pc",
		},
		{
			name: "call outside ABI",
			src: `int other() { return 1; }
			      int probe() { return other(); }`,
			want: `call to "other" outside the helper ABI (allowed: ctx_arg, ctx_cycles, ctx_nr, ctx_pid, map_add, map_hist, now)`,
		},
		{
			name: "helper arity",
			fn: &minic.Fn{Name: "probe", NumRegs: 1, Code: []minic.Instr{
				{Op: minic.OpConst, Dst: 0, Imm: 1},
				{Op: minic.OpCall, Dst: minic.NoReg, Sym: "map_add", Args: []minic.Reg{0}},
				{Op: minic.OpRet, A: minic.NoReg},
			}},
			maps: oneHash,
			want: "map_add takes 3 arguments, got 1",
		},
		{
			name: "not provably in frame",
			src:  `int probe() { int *p; p = 0; return *p; }`,
			want: "not provably inside the probe frame",
		},
		{
			name: "out of range access",
			src:  `int probe() { int a[2]; a[5] = 1; return 0; }`,
			want: "out-of-range memory access: store",
		},
		{
			name: "non-constant map id",
			src:  `int probe() { map_add(ctx_arg(), 1, 1); return 0; }`,
			maps: oneHash,
			want: "map id argument of map_add must be a compile-time constant",
		},
		{
			name: "map id out of bounds",
			src:  `int probe() { map_add(4, 1, 1); return 0; }`,
			maps: oneHash,
			want: "out-of-bounds map id 4: program declares 1 map(s)",
		},
		{
			name: "map kind mismatch",
			src:  `int probe() { map_hist(0, 1, 2); return 0; }`,
			maps: oneHash,
			want: `map_hist needs a hist map, but map 0 ("m") is a hash map`,
		},
		{
			name: "pointer escape into helper",
			src:  `int probe() { int x; x = 7; map_add(0, &x, 1); return 0; }`,
			maps: oneHash,
			want: "pointer escape: argument 1 of map_add is derived from an address",
		},
		{
			name: "pointer escape via return",
			src:  `int probe() { int x; x = 7; return &x; }`,
			want: "pointer escape: probe returns an address-derived value",
		},
		{
			name: "disallowed instruction",
			fn: &minic.Fn{Name: "probe", NumRegs: 1, Code: []minic.Instr{
				{Op: minic.OpCheck, A: 0, Size: 8},
				{Op: minic.OpRet, A: minic.NoReg},
			}},
			want: "not allowed in probe programs",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fn := tc.fn
			if fn == nil {
				fn = compileProbe(t, tc.src)
			}
			err := verify(fn, tc.maps)
			if err == nil {
				t.Fatalf("verified; want rejection containing %q", tc.want)
			}
			ve, ok := err.(*VerifyError)
			if !ok {
				t.Fatalf("got %T (%v); want *VerifyError", err, err)
			}
			if ve.Fn != "probe" {
				t.Errorf("VerifyError.Fn = %q; want %q", ve.Fn, "probe")
			}
			if !strings.Contains(ve.Reason, tc.want) {
				t.Errorf("reason %q does not contain %q", ve.Reason, tc.want)
			}
			if tc.fnLevel {
				if ve.PC != -1 {
					t.Errorf("function-level rejection has PC %d; want -1", ve.PC)
				}
				if strings.Contains(ve.Error(), "at pc") {
					t.Errorf("function-level Error() mentions a pc: %q", ve.Error())
				}
			} else {
				if ve.PC < 0 || ve.PC >= len(fn.Code) {
					t.Errorf("PC %d outside code range [0,%d)", ve.PC, len(fn.Code))
				}
				if !strings.Contains(ve.Error(), "at pc") {
					t.Errorf("Error() missing instruction index: %q", ve.Error())
				}
			}
		})
	}
}

// TestVerifierAcceptsRefinedIndex shows the payoff of the kcheck
// rewrite: a variable index masked into range is proven safe across
// the whole body, where the old linear scan only accepted constant
// offsets.
func TestVerifierAcceptsRefinedIndex(t *testing.T) {
	srcs := []string{
		`int probe() { int a[4]; int i; i = ctx_arg() & 3; a[i] = 1; return a[i]; }`,
		`int probe() {
			int a[8]; int i; i = ctx_nr();
			if (i < 0) { i = 0; }
			if (i > 7) { i = 7; }
			return a[i];
		}`,
	}
	for _, src := range srcs {
		if err := verify(compileProbe(t, src), nil); err != nil {
			t.Errorf("rejected provably-safe program: %v\n%s", err, src)
		}
	}
}
