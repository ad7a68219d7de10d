package minic_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/kgcc"
	"repro/internal/minic"
	"repro/internal/minic/mctest"
)

func compileCorpus(t *testing.T, p mctest.Program) *minic.Module {
	t.Helper()
	unit, err := minic.CompileSource(p.Src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	kgcc.InstrumentUnit(unit, kgcc.FullChecks())
	mod, err := minic.CompileUnit(unit)
	if err != nil {
		t.Fatalf("compile to bytecode: %v", err)
	}
	return mod
}

// TestEncodeDecodeRoundTrip is the serialization acceptance gate:
// encode → decode → encode must be byte-stable for every corpus
// program, and the decoded module must validate and disassemble
// identically to the original.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range mctest.Corpus {
		t.Run(tc.Name, func(t *testing.T) {
			mod := compileCorpus(t, tc)
			enc1 := minic.EncodeModule(mod)
			dec, err := minic.DecodeModule(enc1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			enc2 := minic.EncodeModule(dec)
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("round trip not byte-stable: %d vs %d bytes", len(enc1), len(enc2))
			}
			if mod.Disasm() != dec.Disasm() {
				t.Fatal("decoded module disassembles differently")
			}
			if err := dec.Validate(); err != nil {
				t.Fatalf("decoded module fails validation: %v", err)
			}
		})
	}
}

// TestDecodeRejectsTruncation walks every prefix of a valid encoding:
// each must fail cleanly with ErrBadModule, never panic, never
// succeed (the format has no trailing padding to hide in).
func TestDecodeRejectsTruncation(t *testing.T) {
	enc := minic.EncodeModule(compileCorpus(t, mctest.Corpus[0]))
	for n := 0; n < len(enc); n++ {
		if _, err := minic.DecodeModule(enc[:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte truncation of a %d-byte module", n, len(enc))
		}
	}
}

// TestDecodeRejectsTrailing pins that extra bytes after a valid module
// are an error, so a module blob hashes to exactly one cache key.
func TestDecodeRejectsTrailing(t *testing.T) {
	enc := minic.EncodeModule(compileCorpus(t, mctest.Corpus[0]))
	if _, err := minic.DecodeModule(append(enc, 0)); err == nil {
		t.Fatal("decode accepted trailing garbage")
	}
}

// TestDecodeWideOperands pins the decoder's operand bound against the
// field overloading in VInstr: Dst/A/B usually carry registers
// (≤ 2^20) but VCall.A is an arg-pool offset and the fused branches
// keep their target in Dst, both legal up to 2^22. A valid module
// using the wide range must survive encode → decode → encode
// byte-stably, not die in the operand reader.
func TestDecodeWideOperands(t *testing.T) {
	const off = (1 << 20) + 1
	mod := &minic.Module{
		SrcInsns: 2,
		Builtins: []string{"helper"},
		Funcs: []*minic.Funcode{{
			Name:    "wide",
			NumRegs: 1,
			Code: []minic.VInstr{
				{Op: minic.VCall, Dst: -1, A: off, B: 1, Imm: -1},
				{Op: minic.VRet, A: -1},
			},
			Pos:  make([]minic.Pos, 2),
			Args: make([]int32, off+1),
		}},
	}
	enc := minic.EncodeModule(mod)
	dec, err := minic.DecodeModule(enc)
	if err != nil {
		t.Fatalf("decode wide-operand module: %v", err)
	}
	if got := dec.Funcs[0].Code[0].A; got != off {
		t.Fatalf("VCall.A = %d after round trip; want %d", got, off)
	}
	if re := minic.EncodeModule(dec); !bytes.Equal(enc, re) {
		t.Fatal("re-encode not byte-stable")
	}
}

// TestDecodeRejectsWildBranchTarget: a fused-branch target beyond the
// function is rejected by Validate with a precise diagnostic — the
// decoder's loose operand bound must not be the thing that catches
// (or worse, misses) it.
func TestDecodeRejectsWildBranchTarget(t *testing.T) {
	mod := &minic.Module{
		SrcInsns: 2,
		Funcs: []*minic.Funcode{{
			Name:    "wild",
			NumRegs: 1,
			Code: []minic.VInstr{
				{Op: minic.VBrEqI, A: 0, Imm: 0, Dst: 1 << 21},
				{Op: minic.VRet, A: -1},
			},
			Pos: make([]minic.Pos, 2),
		}},
	}
	enc := minic.EncodeModule(mod)
	_, err := minic.DecodeModule(enc)
	if err == nil {
		t.Fatal("wild branch target decoded")
	}
	if !strings.Contains(err.Error(), "jump target") {
		t.Fatalf("rejection %q should come from Validate's jump-target check", err)
	}
}

// TestCachedModule: the first lookup of a key builds the module and
// writes <key>.kmod, creating the directory; the second reads the same
// bytes back without building. A failed build writes nothing.
func TestCachedModule(t *testing.T) {
	dir := t.TempDir() + "/cache"
	mod := compileCorpus(t, mctest.Corpus[0])
	builds := 0
	build := func() (*minic.Module, error) { builds++; return mod, nil }
	key := minic.HashParts("cached-module")
	miss, path, hit, err := minic.CachedModule(dir, key, build)
	if err != nil || hit || builds != 1 {
		t.Fatalf("first lookup: hit %v, %d builds, %v", hit, builds, err)
	}
	if want := dir + "/" + key.String() + ".kmod"; path != want {
		t.Fatalf("path %s, want %s", path, want)
	}
	again, path2, hit, err := minic.CachedModule(dir, key, build)
	if err != nil || !hit || builds != 1 || path2 != path || !bytes.Equal(again, miss) {
		t.Fatalf("second lookup: hit %v, %d builds, %d vs %d bytes, %v", hit, builds, len(again), len(miss), err)
	}
	if !bytes.Equal(miss, minic.EncodeModule(mod)) {
		t.Fatal("cached bytes are not the module's encoding")
	}
	bad := minic.HashParts("rejected")
	if _, badPath, _, err := minic.CachedModule(dir, bad, func() (*minic.Module, error) {
		return nil, errors.New("rejected")
	}); err == nil {
		t.Fatal("failed build returned no error")
	} else if _, serr := os.Stat(badPath); serr == nil {
		t.Fatal("failed build wrote a cache file")
	}
}
