package lang

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/minic"
)

func sample() *Compound {
	return &Compound{
		NRegs:   4,
		ShmSize: 128,
		Init:    []ShmInit{{Off: 0, Data: []byte("/etc/passwd\x00")}},
		Code: []Instr{
			{Op: OpConst, Dst: 0, Imm: 42, A: NoReg, B: NoReg},
			{Op: OpConst, Dst: 1, Imm: -7, A: NoReg, B: NoReg},
			{Op: OpBin, Dst: 2, A: 0, B: 1, Sub: uint8(minic.BinAdd)},
			{Op: OpSys, Dst: 3, Imm: 2, Args: []Reg{2, 0, 1}, A: NoReg, B: NoReg},
			{Op: OpBrz, A: 3, Imm: 5, Dst: NoReg, B: NoReg},
			{Op: OpEnd, A: 2, Dst: NoReg, B: NoReg},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sample()
	buf := Encode(c)
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NRegs != c.NRegs || got.ShmSize != c.ShmSize {
		t.Fatalf("header: %d/%d", got.NRegs, got.ShmSize)
	}
	if len(got.Code) != len(c.Code) {
		t.Fatalf("code len = %d", len(got.Code))
	}
	for i := range c.Code {
		a, b := c.Code[i], got.Code[i]
		if a.Op != b.Op || a.Dst != b.Dst || a.A != b.A || a.B != b.B ||
			a.Imm != b.Imm || a.Sub != b.Sub || len(a.Args) != len(b.Args) {
			t.Fatalf("instr %d: %+v != %+v", i, a, b)
		}
		for j := range a.Args {
			if a.Args[j] != b.Args[j] {
				t.Fatalf("instr %d arg %d", i, j)
			}
		}
	}
	if string(got.Init[0].Data) != "/etc/passwd\x00" {
		t.Fatalf("init = %q", got.Init[0].Data)
	}

	// Encoding into a reused buffer that held a longer compound yields
	// Encode's bytes exactly: nothing of the old compound survives.
	long := sample()
	long.Init = append(long.Init, ShmInit{Off: 64, Data: bytes.Repeat([]byte{0xAB}, 40)})
	long.Code = append([]Instr{{Op: OpSys, Dst: 3, Imm: 1, Args: []Reg{0, 1, 2, 3}, A: NoReg, B: NoReg}}, long.Code...)
	reused := AppendEncode(nil, long)
	if len(reused) <= len(buf) {
		t.Fatalf("the longer compound encodes in %d bytes, the sample in %d", len(reused), len(buf))
	}
	if again := AppendEncode(reused[:0], c); !bytes.Equal(again, buf) || &again[0] != &reused[0] {
		t.Errorf("AppendEncode into a used buffer: % x, want % x (buffer reused: %v)", again, buf, &again[0] == &reused[0])
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a compound")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	buf := Encode(sample())
	for cut := 1; cut < len(buf); cut += 7 {
		if _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	// The decoder is the kernel's parser of untrusted user input: it
	// must reject, never panic.
	base := Encode(sample())
	if err := quick.Check(func(idx uint16, val byte) bool {
		buf := append([]byte(nil), base...)
		buf[int(idx)%len(buf)] = val
		defer func() {
			if recover() != nil {
				t.Fatal("decoder panicked on corrupted input")
			}
		}()
		_, _ = Decode(buf) // may fail, must not panic
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *Compound)
	}{
		{"reg out of range", func(c *Compound) { c.Code[2].A = 99 }},
		{"jump out of range", func(c *Compound) { c.Code[4].Imm = 100 }},
		{"negative jump", func(c *Compound) { c.Code[4].Imm = -1 }},
		{"bad binop", func(c *Compound) { c.Code[2].Sub = 200 }},
		{"init outside shm", func(c *Compound) { c.Init[0].Off = 1000 }},
		{"no end op", func(c *Compound) { c.Code = c.Code[:3] }},
		{"arg out of range", func(c *Compound) { c.Code[3].Args[0] = 50 }},
		{"no-register operand", func(c *Compound) { c.Code[2].B = NoReg }},
		{"no-register destination", func(c *Compound) { c.Code[0].Dst = NoReg }},
		{"no-register sys arg", func(c *Compound) { c.Code[3].Args[1] = NoReg }},
		{"no-register branch", func(c *Compound) { c.Code[4].A = NoReg }},
		{"bad unop", func(c *Compound) { c.Code[2] = Instr{Op: OpUn, Dst: 2, A: 0, B: NoReg, Sub: 3} }},
	}
	for _, tc := range cases {
		c := sample()
		tc.mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBinOpCodes pins the Sub bytes of OpBin and OpUn: minic numbers
// its operators in the order the compound wire format has always used,
// so every encoded compound keeps its meaning.
func TestBinOpCodes(t *testing.T) {
	for i, op := range []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=", ">", ">="} {
		code, ok := minic.ParseBinOp(op)
		if !ok || int(code) != i || code.String() != op {
			t.Fatalf("%q -> %d (%v), want code %d", op, code, ok, i)
		}
	}
	if _, ok := minic.ParseBinOp("&&"); ok {
		t.Fatal("&& should not be a primitive binop")
	}
	if minic.UnNeg != 0 || minic.UnNot != 1 || minic.UnBnot != 2 || minic.NumUnOps != 3 {
		t.Fatal("unary operator codes moved")
	}
}

func TestDumpAndStrings(t *testing.T) {
	c := sample()
	dump := c.Dump()
	if len(dump) == 0 {
		t.Fatal("empty dump")
	}
	if OpSys.String() != "sys" || Op(99).String() == "" {
		t.Fatal("op names")
	}
}

// TestDecodeIntoReuses decodes differently shaped compounds one after
// another into one Compound: each must read back exactly as a fresh
// Decode does, and a header claiming far more instructions than its
// bytes hold must fail without allocating for them.
func TestDecodeIntoReuses(t *testing.T) {
	big := sample()
	big.Init = append(big.Init, ShmInit{Off: 64, Data: []byte("/tmp/x\x00")})
	big.Code = append([]Instr{
		{Op: OpSys, Dst: 3, Imm: 2, Args: []Reg{0, 1, 2, 3}, A: NoReg, B: NoReg},
		{Op: OpSys, Dst: 3, Imm: 1, A: NoReg, B: NoReg},
	}, big.Code...)
	for i := range big.Code {
		if big.Code[i].Op == OpBrz {
			big.Code[i].Imm += 2
		}
	}
	bare := &Compound{NRegs: 1, Code: []Instr{
		{Op: OpConst, Dst: 0, Imm: 9, A: NoReg, B: NoReg},
		{Op: OpEnd, A: 0, Dst: NoReg, B: NoReg},
	}}
	var c Compound
	for i, src := range []*Compound{sample(), big, bare, sample(), bare, big} {
		buf := Encode(src)
		want, err := Decode(buf)
		if err != nil {
			t.Fatalf("compound %d: %v", i, err)
		}
		if err := DecodeInto(&c, buf); err != nil {
			t.Fatalf("compound %d: DecodeInto: %v", i, err)
		}
		if c.NRegs != want.NRegs || c.ShmSize != want.ShmSize {
			t.Errorf("compound %d: header %d/%d, want %d/%d", i, c.NRegs, c.ShmSize, want.NRegs, want.ShmSize)
		}
		if len(c.Init) != len(want.Init) {
			t.Fatalf("compound %d: %d init blobs, want %d", i, len(c.Init), len(want.Init))
		}
		for j := range want.Init {
			if c.Init[j].Off != want.Init[j].Off || !bytes.Equal(c.Init[j].Data, want.Init[j].Data) {
				t.Errorf("compound %d init %d: %+v, want %+v", i, j, c.Init[j], want.Init[j])
			}
		}
		if len(c.Code) != len(want.Code) {
			t.Fatalf("compound %d: %d instructions, want %d", i, len(c.Code), len(want.Code))
		}
		for j := range want.Code {
			a, b := c.Code[j], want.Code[j]
			if a.Op != b.Op || a.Dst != b.Dst || a.A != b.A || a.B != b.B || a.Imm != b.Imm ||
				a.Sub != b.Sub || !slices.Equal(a.Args, b.Args) {
				t.Errorf("compound %d instr %d: %+v, want %+v", i, j, a, b)
			}
		}
		if n, err := ShmSize(buf); err != nil || n != want.ShmSize {
			t.Errorf("compound %d: ShmSize = %d, %v, want %d", i, n, err, want.ShmSize)
		}
	}

	hostile := make([]byte, hdrSize)
	le.PutUint32(hostile, magic)
	le.PutUint32(hostile[12:], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	errFresh := DecodeInto(&Compound{}, hostile)
	errReused := DecodeInto(&c, hostile)
	runtime.ReadMemStats(&after)
	if errFresh == nil || errReused == nil {
		t.Fatal("a 16-byte compound claiming 1<<20 instructions decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("rejecting a 16-byte compound allocated %d bytes", n)
	}
}
