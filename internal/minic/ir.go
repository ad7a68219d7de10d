package minic

import (
	"fmt"
	"strings"
)

// Reg is a virtual register index.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// OpCode is an IR instruction opcode.
type OpCode int

// IR opcodes. The IR is a flat three-address code with explicit jump
// targets (instruction indices), which keeps the KGCC instrumentation
// pass (check insertion between existing instructions) and the Cosy
// encoder straightforward.
const (
	OpNop OpCode = iota
	// OpConst: Dst = Imm.
	OpConst
	// OpStrAddr: Dst = address of string literal Strings[Imm].
	OpStrAddr
	// OpMov: Dst = A.
	OpMov
	// OpBin: Dst = A <BinOp> B. PtrArith marks pointer +/- offset.
	OpBin
	// OpUn: Dst = <UnOp> A  (neg, not, bnot).
	OpUn
	// OpLoad: Dst = mem[A], Size bytes (1 or 8).
	OpLoad
	// OpStore: mem[A] = B, Size bytes.
	OpStore
	// OpFrameAddr: Dst = frame base + Imm (address of a stack local).
	// Sym holds the local's name for diagnostics and registration.
	OpFrameAddr
	// OpCall: Dst = Sym(Args...). Dst may be NoReg for void.
	OpCall
	// OpJump: goto Imm.
	OpJump
	// OpBranchZ: if A == 0 goto Imm.
	OpBranchZ
	// OpRet: return A (NoReg for void return).
	OpRet
	// OpCheck: KGCC bounds check of the access mem[A] of Size bytes;
	// Imm is 0 for load, 1 for store. Inserted by kgcc.Instrument.
	OpCheck
	// OpArithCheck: KGCC pointer-arithmetic check; A is the base
	// pointer, B the derived pointer (result), Dst receives the
	// (possibly OOB-peer) pointer value.
	OpArithCheck
	// OpMarker: a named no-op left by markers like COSY_START. Sym
	// holds the name.
	OpMarker
)

var opNames = [...]string{
	"nop", "const", "straddr", "mov", "bin", "un", "load", "store",
	"frameaddr", "call", "jump", "brz", "ret", "check", "arithcheck", "marker",
}

func (o OpCode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// WritesDst reports whether an instruction of op writes its Dst.
func (o OpCode) WritesDst() bool {
	switch o {
	case OpConst, OpStrAddr, OpMov, OpBin, OpUn, OpLoad, OpFrameAddr, OpCall, OpArithCheck:
		return true
	}
	return false
}

// Instr is one IR instruction. Operator fields are integer codes
// (BinOp/UnOp); the string spellings exist only at the parse and
// print boundaries.
type Instr struct {
	Op    OpCode
	Dst   Reg
	A, B  Reg
	Imm   int64
	Size  int
	BinOp BinOp
	UnOp  UnOp
	Sym   string
	Args  []Reg
	// PtrArith marks an OpBin that derives a pointer from a pointer.
	PtrArith bool
	Pos      Pos
}

func (in Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
	case OpStrAddr:
		return fmt.Sprintf("r%d = &str[%d]", in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.A, in.BinOp, in.B)
	case OpUn:
		return fmt.Sprintf("r%d = %s r%d", in.Dst, in.UnOp, in.A)
	case OpLoad:
		return fmt.Sprintf("r%d = load%d [r%d]", in.Dst, in.Size, in.A)
	case OpStore:
		return fmt.Sprintf("store%d [r%d] = r%d", in.Size, in.A, in.B)
	case OpFrameAddr:
		return fmt.Sprintf("r%d = &%s (fp+%d)", in.Dst, in.Sym, in.Imm)
	case OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		return fmt.Sprintf("r%d = %s(%s)", in.Dst, in.Sym, strings.Join(args, ","))
	case OpJump:
		return fmt.Sprintf("jump %d", in.Imm)
	case OpBranchZ:
		return fmt.Sprintf("brz r%d -> %d", in.A, in.Imm)
	case OpRet:
		if in.A == NoReg {
			return "ret"
		}
		return fmt.Sprintf("ret r%d", in.A)
	case OpCheck:
		kind := "load"
		if in.Imm == 1 {
			kind = "store"
		}
		return fmt.Sprintf("check %s [r%d] size %d", kind, in.A, in.Size)
	case OpArithCheck:
		return fmt.Sprintf("r%d = arithcheck base r%d derived r%d", in.Dst, in.A, in.B)
	case OpMarker:
		return "marker " + in.Sym
	}
	return in.Op.String()
}

// EachRead calls f with each register the instruction reads, in
// operand order; a void return reads none.
func (in *Instr) EachRead(f func(Reg)) {
	switch in.Op {
	case OpMov, OpUn, OpLoad, OpBranchZ, OpCheck:
		f(in.A)
	case OpBin, OpStore, OpArithCheck:
		f(in.A)
		f(in.B)
	case OpRet:
		if in.A != NoReg {
			f(in.A)
		}
	case OpCall:
		for _, a := range in.Args {
			f(a)
		}
	}
}

// Local is a stack variable.
type Local struct {
	Name string
	T    *Type
	// InMemory locals live in the frame at Offset; register locals
	// live in Reg. Arrays and address-taken scalars are in memory.
	InMemory  bool
	AddrTaken bool
	Offset    int
	Reg       Reg
}

// Fn is one compiled function.
type Fn struct {
	Name      string
	Ret       *Type
	NumParams int
	// ParamRegs are the registers receiving arguments (in-memory
	// params are copied into their slots in the prologue).
	ParamRegs []Reg
	Locals    []*Local
	FrameSize int
	Code      []Instr
	NumRegs   int
	Strings   []string
}

// Local looks up a local (including params) by name.
func (f *Fn) Local(name string) *Local {
	for _, l := range f.Locals {
		if l.Name == name {
			return l
		}
	}
	return nil
}

// Dump renders the function IR for debugging.
func (f *Fn) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (frame %d bytes, %d regs)\n", f.Name, f.FrameSize, f.NumRegs)
	for i, in := range f.Code {
		fmt.Fprintf(&b, "%4d: %s\n", i, in)
	}
	return b.String()
}

// FrameObj describes one in-memory object inside a function's stack
// frame: the metadata the KGCC runtime needs to register stack
// objects, shared by IR functions and compiled bytecode (which has no
// *Local table).
type FrameObj struct {
	Name string
	Off  int
	Size int
}

// FrameObjs returns the in-memory locals of f as frame objects, in
// declaration order.
func (f *Fn) FrameObjs() []FrameObj {
	var objs []FrameObj
	for _, l := range f.Locals {
		if !l.InMemory {
			continue
		}
		objs = append(objs, FrameObj{Name: l.Name, Off: l.Offset, Size: l.T.Size()})
	}
	return objs
}

// CountOps tallies instructions by opcode (used by the E8 statistics).
func (f *Fn) CountOps() map[OpCode]int {
	m := make(map[OpCode]int)
	for _, in := range f.Code {
		m[in.Op]++
	}
	return m
}

// Unit is a compiled translation unit.
type Unit struct {
	Fns   map[string]*Fn
	Order []string
}

// Fn returns the named function.
func (u *Unit) Fn(name string) *Fn { return u.Fns[name] }
