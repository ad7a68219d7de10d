// Package lang defines the Cosy intermediate language: the encoding
// of a marked code segment into a *compound* that the Cosy kernel
// extension executes (§2.3).
//
//	"Cosy encodes a C code segment containing system calls in a
//	compound structure. The kernel executes this aggregate compound
//	directly, thus avoiding data copies between user space and
//	kernel-space."
//
// A compound is a small register program: constants, arithmetic,
// branches (bounded loops), system-call operations, and loads/stores
// into its data segment (shm), the rest of the ring entry that
// carries the compound. The
// language is deliberately a restricted subset: "We limited Cosy to
// the execution of only a subset of C in the kernel. One of the main
// reasons is safety. Another concern is that extending the language
// further ... may not increase performance because the overhead to
// decode a compound increases with the complexity of the language."
package lang

import (
	"errors"
	"fmt"

	"repro/internal/minic"
)

// Op is a compound operation code.
type Op uint8

// Compound opcodes.
const (
	// OpEnd terminates the compound; A is the result register.
	OpEnd Op = iota
	// OpConst: Dst = Imm.
	OpConst
	// OpMov: Dst = A.
	OpMov
	// OpBin: Dst = A <Sub> B (Sub is a minic.BinOp code).
	OpBin
	// OpUn: Dst = <Sub> A (Sub is a minic.UnOp code).
	OpUn
	// OpLoad: Dst = shm[A], Sub is the size (1 or 8).
	OpLoad
	// OpStore: shm[A] = B, Sub is the size.
	OpStore
	// OpSys: Dst = syscall(Imm = syscall number, Args...).
	OpSys
	// OpJmp: unconditional jump to instruction Imm.
	OpJmp
	// OpBrz: if A == 0 jump to instruction Imm.
	OpBrz
	opCount
)

var opNames = [...]string{"end", "const", "mov", "bin", "un", "load", "store", "sys", "jmp", "brz"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// Reg is a compound register index.
type Reg uint16

// NoReg marks an unused register field.
const NoReg Reg = 0xFFFF

// Instr is one compound operation.
type Instr struct {
	Op   Op
	Dst  Reg
	A, B Reg
	Imm  int64
	Sub  uint8
	Args []Reg
}

func (in Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("r%d = r%d %v r%d", in.Dst, in.A, minic.BinOp(in.Sub), in.B)
	case OpUn:
		return fmt.Sprintf("r%d = %v r%d", in.Dst, minic.UnOp(in.Sub), in.A)
	case OpLoad:
		return fmt.Sprintf("r%d = shm%d[r%d]", in.Dst, in.Sub, in.A)
	case OpStore:
		return fmt.Sprintf("shm%d[r%d] = r%d", in.Sub, in.A, in.B)
	case OpSys:
		return fmt.Sprintf("r%d = sys_%d(%v)", in.Dst, in.Imm, in.Args)
	case OpJmp:
		return fmt.Sprintf("jmp %d", in.Imm)
	case OpBrz:
		return fmt.Sprintf("brz r%d -> %d", in.A, in.Imm)
	case OpEnd:
		return fmt.Sprintf("end r%d", in.A)
	}
	return in.Op.String()
}

// ShmInit is initial data the compound wants placed in its data
// segment before execution (path strings and the like).
type ShmInit struct {
	Off  int
	Data []byte
}

// Compound is one encoded code segment.
type Compound struct {
	NRegs   int
	ShmSize int
	Init    []ShmInit
	Code    []Instr

	// args is the backing array DecodeInto slices every Code[i].Args
	// from, kept for the next decode into the same Compound.
	args []Reg
}

// opUses marks the register fields each operation reads or writes;
// OpSys also uses every Args entry, and OpEnd's A may be NoReg (no
// result).
var opUses = [opCount]struct{ dst, a, b bool }{
	OpConst: {dst: true},
	OpMov:   {dst: true, a: true},
	OpBin:   {dst: true, a: true, b: true},
	OpUn:    {dst: true, a: true},
	OpLoad:  {dst: true, a: true},
	OpStore: {a: true, b: true},
	OpSys:   {dst: true},
	OpBrz:   {a: true},
}

// Validate performs the static checks the kernel extension runs
// before execution: register indices in range, a real register in
// every field an operation uses (NoReg only in fields it ignores),
// known operator codes, jump targets in range, shm init regions
// inside the buffer.
func (c *Compound) Validate() error {
	if c.NRegs < 0 || c.NRegs > 4096 {
		return fmt.Errorf("cosy: unreasonable register count %d", c.NRegs)
	}
	checkReg := func(r Reg, used bool) error {
		switch {
		case r == NoReg && used:
			return errors.New("cosy: operand names no register")
		case r != NoReg && int(r) >= c.NRegs:
			return fmt.Errorf("cosy: register r%d out of range (%d regs)", r, c.NRegs)
		}
		return nil
	}
	for i, in := range c.Code {
		if in.Op >= opCount {
			return fmt.Errorf("cosy: instruction %d: bad opcode %d", i, in.Op)
		}
		use := opUses[in.Op]
		for _, f := range []struct {
			r    Reg
			used bool
		}{{in.Dst, use.dst}, {in.A, use.a}, {in.B, use.b}} {
			if err := checkReg(f.r, f.used); err != nil {
				return fmt.Errorf("instruction %d: %w", i, err)
			}
		}
		for _, r := range in.Args {
			if err := checkReg(r, in.Op == OpSys); err != nil {
				return fmt.Errorf("instruction %d: %w", i, err)
			}
		}
		switch in.Op {
		case OpJmp, OpBrz:
			if in.Imm < 0 || in.Imm >= int64(len(c.Code)) {
				return fmt.Errorf("cosy: instruction %d: jump target %d out of range", i, in.Imm)
			}
		case OpBin:
			if minic.BinOp(in.Sub) >= minic.NumBinOps {
				return fmt.Errorf("cosy: instruction %d: bad binop %d", i, in.Sub)
			}
		case OpUn:
			if minic.UnOp(in.Sub) >= minic.NumUnOps {
				return fmt.Errorf("cosy: instruction %d: bad unop %d", i, in.Sub)
			}
		case OpLoad, OpStore:
			if in.Sub != 1 && in.Sub != 8 {
				return fmt.Errorf("cosy: instruction %d: bad access size %d", i, in.Sub)
			}
		}
	}
	for _, ini := range c.Init {
		if ini.Off < 0 || ini.Off+len(ini.Data) > c.ShmSize {
			return fmt.Errorf("cosy: shm init [%d,+%d) outside buffer of %d", ini.Off, len(ini.Data), c.ShmSize)
		}
	}
	if len(c.Code) == 0 || c.Code[len(c.Code)-1].Op != OpEnd {
		return errors.New("cosy: compound must end with an end operation")
	}
	return nil
}

// Dump renders the compound for debugging.
func (c *Compound) Dump() string {
	s := fmt.Sprintf("compound: %d regs, %d shm bytes, %d init blobs\n", c.NRegs, c.ShmSize, len(c.Init))
	for i, in := range c.Code {
		s += fmt.Sprintf("%4d: %s\n", i, in)
	}
	return s
}
