// Package lib is Cosy-Lib: "utility functions to create a compound.
// Statements in the user-marked code segment are changed by the
// Cosy-GCC to call these utility functions. The functioning of
// Cosy-Lib and the internal structure of the compound buffer are
// entirely transparent to the user." (§2.3) Here Cosy-GCC (cosy/cc)
// translates minic's IR instead, and Cosy-Lib serves the code that
// builds compounds directly: workloads, experiments and tests.
//
// It is a small assembler for the compound language: allocate
// registers and data-segment space, emit operations, patch forward
// branches, and seal the compound.
package lib

import (
	"fmt"

	"repro/internal/cosy/lang"
	"repro/internal/minic"
)

// Builder incrementally constructs a compound.
type Builder struct {
	c         lang.Compound
	shmCursor int
	err       error
}

// New creates an empty builder.
func New() *Builder { return &Builder{} }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Reg allocates a fresh register.
func (b *Builder) Reg() lang.Reg {
	r := lang.Reg(b.c.NRegs)
	b.c.NRegs++
	return r
}

func (b *Builder) emit(in lang.Instr) int {
	b.c.Code = append(b.c.Code, in)
	return len(b.c.Code) - 1
}

// Const emits a constant load and returns its register.
func (b *Builder) Const(v int64) lang.Reg {
	r := b.Reg()
	b.emit(lang.Instr{Op: lang.OpConst, Dst: r, Imm: v, A: lang.NoReg, B: lang.NoReg})
	return r
}

// Bin emits dst = a op br and returns dst.
func (b *Builder) Bin(op string, a, br lang.Reg) lang.Reg {
	dst := b.Reg()
	b.BinInto(dst, op, a, br)
	return dst
}

// BinInto emits dst = a op bi into an existing register.
func (b *Builder) BinInto(dst lang.Reg, op string, a, bi lang.Reg) {
	code, ok := minic.ParseBinOp(op)
	if !ok {
		b.fail("cosy: unknown operator %q", op)
	}
	b.emit(lang.Instr{Op: lang.OpBin, Dst: dst, A: a, B: bi, Sub: uint8(code)})
}

// Sys emits a system-call operation and returns the result register.
func (b *Builder) Sys(nr uint16, args ...lang.Reg) lang.Reg {
	dst := b.Reg()
	b.emit(lang.Instr{Op: lang.OpSys, Dst: dst, Imm: int64(nr),
		A: lang.NoReg, B: lang.NoReg, Args: args})
	return dst
}

// Load emits dst = shm[addr] of size bytes.
func (b *Builder) Load(size int, addr lang.Reg) lang.Reg {
	dst := b.Reg()
	b.emit(lang.Instr{Op: lang.OpLoad, Dst: dst, A: addr, B: lang.NoReg, Sub: uint8(size)})
	return dst
}

// Store emits shm[addr] = val of size bytes.
func (b *Builder) Store(size int, addr, val lang.Reg) {
	b.emit(lang.Instr{Op: lang.OpStore, A: addr, B: val, Sub: uint8(size)})
}

// Alloc reserves n bytes of data-segment space and returns the
// offset.
func (b *Builder) Alloc(n int) int {
	off := (b.shmCursor + 7) &^ 7
	b.shmCursor = off + n
	if b.shmCursor > b.c.ShmSize {
		b.c.ShmSize = b.shmCursor
	}
	return off
}

// String places a NUL-terminated string in the data segment and
// returns its offset, as Cosy-GCC does for string literals.
func (b *Builder) String(s string) int {
	off := b.Alloc(len(s) + 1)
	b.c.Init = append(b.c.Init, lang.ShmInit{Off: off, Data: append([]byte(s), 0)})
	return off
}

// Here returns the index of the next instruction (a branch target).
func (b *Builder) Here() int { return len(b.c.Code) }

// Patch is a forward branch awaiting its target.
type Patch struct {
	b   *Builder
	idx int
}

// Here points the branch at the next instruction.
func (p Patch) Here() { p.b.c.Code[p.idx].Imm = int64(p.b.Here()) }

// JmpTo emits an unconditional branch to a known target.
func (b *Builder) JmpTo(target int) {
	b.emit(lang.Instr{Op: lang.OpJmp, Imm: int64(target), Dst: lang.NoReg, A: lang.NoReg, B: lang.NoReg})
}

// Brz emits a branch-if-zero on cond, to be patched.
func (b *Builder) Brz(cond lang.Reg) Patch {
	idx := b.emit(lang.Instr{Op: lang.OpBrz, A: cond, Dst: lang.NoReg, B: lang.NoReg})
	return Patch{b, idx}
}

// CountedLoop emits for (i = 0; i < n; i++) { body(i) }.
func (b *Builder) CountedLoop(n int64, body func(i lang.Reg)) {
	i := b.Const(0)
	limit := b.Const(n)
	top := b.Here()
	cond := b.Bin("<", i, limit)
	exit := b.Brz(cond)
	body(i)
	one := b.Const(1)
	b.BinInto(i, "+", i, one)
	b.JmpTo(top)
	exit.Here()
}

// End seals the compound with result reg and validates it.
func (b *Builder) End(result lang.Reg) (*lang.Compound, error) {
	b.emit(lang.Instr{Op: lang.OpEnd, A: result, Dst: lang.NoReg, B: lang.NoReg})
	if b.err != nil {
		return nil, b.err
	}
	if err := b.c.Validate(); err != nil {
		return nil, err
	}
	return &b.c, nil
}

// Build is End plus Encode.
func (b *Builder) Build(result lang.Reg) ([]byte, error) {
	c, err := b.End(result)
	if err != nil {
		return nil, err
	}
	return lang.Encode(c), nil
}
