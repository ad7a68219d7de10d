package minic

import (
	"fmt"
	"strings"
)

// This file defines the compiled bytecode form of a minic unit: the
// Module/Funcode containers and the compiler from IR. The design
// follows the eBPF idiom the paper leans on — verify once at the IR
// level, compile to a flat integer-opcode instruction array, execute
// a tight dispatch loop (vm.go), and cache the admitted module under
// a content hash of its source (cache.go).
//
// Compilation is strictly 1:1: every IR instruction (nops and markers
// included) becomes exactly one VInstr at the same index. That
// invariant is what makes the VM bit-identical to the tree-walking
// interpreter on simulated cycles: step counts, branch targets, check
// ordering, and the order of KGCC hook invocations (the splay-tree
// object map charges by access order) all carry over unchanged. The
// speed comes from what each instruction costs the host, not from
// reordering: specialized integer opcodes instead of string-keyed
// operator dispatch, pre-resolved call targets and string addresses,
// and a reusable register stack with zero allocations per call.

// VOp is a bytecode opcode. Binary operators are specialized per
// operation (VAdd+BinOp) and loads/stores per access size, so the
// dispatch loop never inspects a secondary field to decide what to do.
type VOp uint8

// Bytecode opcodes.
const (
	VNop VOp = iota
	// VConst: Dst = Imm.
	VConst
	// VStr: Dst = address of string literal Imm (pre-resolved by NewVM).
	VStr
	// VMov: Dst = A.
	VMov
	// Binary block: Dst = A <op> B. Order mirrors BinOp so conversion
	// is VAdd + VOp(op).
	VAdd
	VSub
	VMul
	VDiv
	VMod
	VAnd
	VOr
	VXor
	VShl
	VShr
	VEq
	VNe
	VLt
	VLe
	VGt
	VGe
	// Unary block: Dst = <op> A. Order mirrors UnOp.
	VNeg
	VNot
	VBnot
	// VLoad1/VLoad8: Dst = mem[A] (1 or 8 bytes).
	VLoad1
	VLoad8
	// VStore1/VStore8: mem[A] = B.
	VStore1
	VStore8
	// VFrame: Dst = frame base + Imm.
	VFrame
	// VCall: Dst = callee(args), where the B argument registers start
	// at Funcode.Args[A]. Imm >= 0 names Module.Funcs[Imm]; Imm < 0
	// names builtin slot -(Imm+1). Dst < 0 discards the result.
	VCall
	// VJump: pc = Imm.
	VJump
	// VBrz: if A == 0, pc = Imm.
	VBrz
	// VRet: return A (A < 0 returns 0).
	VRet
	// VCheck: KGCC bounds check of mem[A], Sz bytes; Imm 0=load 1=store.
	VCheck
	// VArith: KGCC pointer-arithmetic check; Dst = checked pointer,
	// A = base, B = derived.
	VArith
	// Fused superinstructions. The fusion pass (fuseFn) combines
	// adjacent instructions whose intermediate register is used exactly
	// once into one slot; each fused opcode advances the step counter
	// by the number of IR instructions it stands for (vopWeight), so
	// budgets and cycle accounting stay bit-identical to the unfused
	// form while the dispatch loop runs fewer iterations.
	//
	// Immediate-operand binary block: Dst = A <op> Imm (fused
	// VConst+binop). Order mirrors the binary block above.
	VAddI
	VSubI
	VMulI
	VDivI
	VModI
	VAndI
	VOrI
	VXorI
	VShlI
	VShrI
	VEqI
	VNeI
	VLtI
	VLeI
	VGtI
	VGeI
	// Fused compare-and-branch (VEq..VGe + VBrz): jump to Imm when the
	// comparison of A and B is FALSE (the compare result would be zero).
	// Order mirrors VEq..VGe.
	VBrEq
	VBrNe
	VBrLt
	VBrLe
	VBrGt
	VBrGe
	// Fused compare-immediate-and-branch (VConst + VEq..VGe + VBrz):
	// jump to Dst when the comparison of A and Imm is FALSE.
	VBrEqI
	VBrNeI
	VBrLtI
	VBrLeI
	VBrGtI
	VBrGeI
	NumVOps
)

// vopWeight is the number of IR instructions each opcode stands for;
// the VM advances Steps by this weight.
var vopWeight [NumVOps]uint8

func init() {
	for i := range vopWeight {
		vopWeight[i] = 1
	}
	for op := VAddI; op <= VGeI; op++ {
		vopWeight[op] = 2
	}
	for op := VBrEq; op <= VBrGe; op++ {
		vopWeight[op] = 2
	}
	for op := VBrEqI; op <= VBrGeI; op++ {
		vopWeight[op] = 3
	}
}

var vopNames = [NumVOps]string{
	"nop", "const", "str", "mov",
	"add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr",
	"eq", "ne", "lt", "le", "gt", "ge",
	"neg", "not", "bnot",
	"load1", "load8", "store1", "store8",
	"frame", "call", "jump", "brz", "ret", "check", "arith",
	"addi", "subi", "muli", "divi", "modi", "andi", "ori", "xori", "shli", "shri",
	"eqi", "nei", "lti", "lei", "gti", "gei",
	"breq", "brne", "brlt", "brle", "brgt", "brge",
	"breqi", "brnei", "brlti", "brlei", "brgti", "brgei",
}

func (op VOp) String() string {
	if op < NumVOps {
		return vopNames[op]
	}
	return fmt.Sprintf("vop%d", int(op))
}

// VInstr is one bytecode instruction: a flat fixed-width struct so
// the code array is a contiguous slice with no per-instruction
// pointers.
type VInstr struct {
	Op VOp
	Sz uint8 // access size for loads/stores/checks
	// Wt caches vopWeight[Op] so the eval loop charges the step budget
	// without a side-table load. It is derived state: CompileUnit sets
	// it from Op.
	Wt  uint8
	Dst int32
	A   int32
	B   int32
	// Src is the IR pc this slot was compiled from (the first
	// constituent for fused opcodes). Runtime diagnostics report it so
	// error strings cite the same pc the tree-walking interpreter does.
	Src int32
	Imm int64
}

// Funcode is one compiled function.
type Funcode struct {
	Name      string
	NumParams int
	NumRegs   int
	FrameSize int
	ParamRegs []int32
	Code      []VInstr
	// Pos is the pc→source-position table: Pos[i] is the source
	// position of Code[i], preserved through compilation so runtime
	// diagnostics carry the exact line:col the IR had.
	Pos []Pos
	// Args is the call-argument register pool; a VCall's operands are
	// Args[A : A+B].
	Args []int32
	// Strings are the function's literal pool (materialized by NewVM).
	Strings []string
	// Objs are the frame's in-memory locals, for KGCC stack-object
	// registration.
	Objs []FrameObj
}

// Module is a compiled minic unit: the artifact a content-hash cache
// stores and probe attach re-uses. A Module is immutable once built —
// concurrent VMs may share one.
type Module struct {
	Funcs []*Funcode
	// Builtins are the builtin names VCall references by slot.
	Builtins []string

	index map[string]int
}

// Fn returns the named function, or nil.
func (m *Module) Fn(name string) *Funcode {
	if i, ok := m.index[name]; ok {
		return m.Funcs[i]
	}
	return nil
}

// FnIndex returns the index of the named function in Funcs, or -1.
func (m *Module) FnIndex(name string) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	return -1
}

// Names lists the module's function names in definition order.
func (m *Module) Names() []string {
	names := make([]string, len(m.Funcs))
	for i, fc := range m.Funcs {
		names[i] = fc.Name
	}
	return names
}

// CompileUnit compiles every function of an IR unit (typically
// already optimized and KGCC-instrumented — elided checks simply do
// not exist in the IR, and retained checks become explicit VCheck /
// VArith opcodes) into a Module.
func CompileUnit(u *Unit) (*Module, error) {
	m := &Module{}
	fidx := make(map[string]int, len(u.Order))
	for i, name := range u.Order {
		fidx[name] = i
	}
	bidx := make(map[string]int)
	for _, name := range u.Order {
		fc, err := compileFn(u.Fns[name], fidx, bidx, &m.Builtins)
		if err != nil {
			return nil, err
		}
		for j := range fc.Code {
			fc.Code[j].Wt = vopWeight[fc.Code[j].Op]
		}
		m.Funcs = append(m.Funcs, fc)
	}
	m.index = fidx
	return m, nil
}

// compileFn lowers one IR function 1:1 into bytecode. fidx resolves
// unit-internal callees to function indices; bidx interns builtin
// names into slots.
func compileFn(fn *Fn, fidx map[string]int, bidx map[string]int, builtins *[]string) (*Funcode, error) {
	fc := &Funcode{
		Name:      fn.Name,
		NumParams: fn.NumParams,
		NumRegs:   fn.NumRegs,
		FrameSize: fn.FrameSize,
		Strings:   fn.Strings,
		Objs:      fn.FrameObjs(),
		Code:      make([]VInstr, 0, len(fn.Code)),
		Pos:       make([]Pos, 0, len(fn.Code)),
	}
	for _, r := range fn.ParamRegs {
		fc.ParamRegs = append(fc.ParamRegs, int32(r))
	}
	for pc := range fn.Code {
		in := &fn.Code[pc]
		var v VInstr
		switch in.Op {
		case OpNop, OpMarker:
			v = VInstr{Op: VNop}
		case OpConst:
			v = VInstr{Op: VConst, Dst: int32(in.Dst), Imm: in.Imm}
		case OpStrAddr:
			if in.Imm < 0 || in.Imm >= int64(len(fn.Strings)) {
				return nil, fmt.Errorf("minic: compile %s pc=%d: string index %d out of range", fn.Name, pc, in.Imm)
			}
			v = VInstr{Op: VStr, Dst: int32(in.Dst), Imm: in.Imm}
		case OpMov:
			v = VInstr{Op: VMov, Dst: int32(in.Dst), A: int32(in.A)}
		case OpBin:
			if in.BinOp >= NumBinOps {
				return nil, fmt.Errorf("minic: compile %s pc=%d: bad binary op %d", fn.Name, pc, in.BinOp)
			}
			v = VInstr{Op: VAdd + VOp(in.BinOp), Dst: int32(in.Dst), A: int32(in.A), B: int32(in.B)}
		case OpUn:
			if in.UnOp >= NumUnOps {
				return nil, fmt.Errorf("minic: compile %s pc=%d: bad unary op %d", fn.Name, pc, in.UnOp)
			}
			v = VInstr{Op: VNeg + VOp(in.UnOp), Dst: int32(in.Dst), A: int32(in.A)}
		case OpLoad:
			op := VLoad8
			if in.Size == 1 {
				op = VLoad1
			}
			v = VInstr{Op: op, Sz: accessSize(in.Size), Dst: int32(in.Dst), A: int32(in.A)}
		case OpStore:
			op := VStore8
			if in.Size == 1 {
				op = VStore1
			}
			v = VInstr{Op: op, Sz: accessSize(in.Size), A: int32(in.A), B: int32(in.B)}
		case OpFrameAddr:
			v = VInstr{Op: VFrame, Dst: int32(in.Dst), Imm: in.Imm}
		case OpCall:
			off := int32(len(fc.Args))
			for _, a := range in.Args {
				fc.Args = append(fc.Args, int32(a))
			}
			callee, ok := fidx[in.Sym]
			imm := int64(callee)
			if !ok {
				slot, seen := bidx[in.Sym]
				if !seen {
					slot = len(*builtins)
					*builtins = append(*builtins, in.Sym)
					bidx[in.Sym] = slot
				}
				imm = -int64(slot) - 1
			}
			v = VInstr{Op: VCall, Dst: int32(in.Dst), A: off, B: int32(len(in.Args)), Imm: imm}
		case OpJump:
			v = VInstr{Op: VJump, Imm: in.Imm}
		case OpBranchZ:
			v = VInstr{Op: VBrz, A: int32(in.A), Imm: in.Imm}
		case OpRet:
			v = VInstr{Op: VRet, A: int32(in.A)}
		case OpCheck:
			v = VInstr{Op: VCheck, Sz: accessSize(in.Size), A: int32(in.A), Imm: in.Imm}
		case OpArithCheck:
			v = VInstr{Op: VArith, Dst: int32(in.Dst), A: int32(in.A), B: int32(in.B)}
		default:
			return nil, fmt.Errorf("minic: compile %s pc=%d: unhandled op %v", fn.Name, pc, in.Op)
		}
		v.Src = int32(pc)
		fc.Code = append(fc.Code, v)
		fc.Pos = append(fc.Pos, in.Pos)
	}
	fuseFn(fc)
	return fc, nil
}

// fuseFn rewrites a function's 1:1 bytecode with superinstructions.
// Fusion only applies when the intermediate register is read exactly
// once in the whole function and the consumed instruction is not a
// branch target, so eliminating the intermediate write is
// unobservable; step weights (vopWeight) keep the executed-instruction
// count — and therefore budgets and cycle charges — bit-identical to
// the unfused form.
func fuseFn(fc *Funcode) {
	n := len(fc.Code)
	if n == 0 {
		return
	}
	// Per-register read counts over the whole function.
	reads := make([]int32, fc.NumRegs)
	addRead := func(r int32) {
		if r >= 0 && int(r) < len(reads) {
			reads[r]++
		}
	}
	for pc := range fc.Code {
		in := &fc.Code[pc]
		switch in.Op {
		case VMov, VNeg, VNot, VBnot, VLoad1, VLoad8, VCheck, VBrz:
			addRead(in.A)
		case VAdd, VSub, VMul, VDiv, VMod, VAnd, VOr, VXor, VShl, VShr,
			VEq, VNe, VLt, VLe, VGt, VGe, VStore1, VStore8, VArith:
			addRead(in.A)
			addRead(in.B)
		case VRet:
			if in.A >= 0 {
				addRead(in.A)
			}
		case VCall:
			for _, r := range fc.Args[in.A : in.A+in.B] {
				addRead(r)
			}
		}
	}
	// Branch targets must stay addressable: never consume a leader.
	leader := make([]bool, n+1)
	leader[0] = true
	for pc := range fc.Code {
		in := &fc.Code[pc]
		if in.Op == VJump || in.Op == VBrz {
			leader[in.Imm] = true
		}
	}
	isCmp := func(op VOp) bool { return op >= VEq && op <= VGe }
	commutative := func(op VOp) bool {
		switch op {
		case VAdd, VMul, VAnd, VOr, VXor, VEq, VNe:
			return true
		}
		return false
	}
	newCode := make([]VInstr, 0, n)
	newPos := make([]Pos, 0, n)
	newPC := make([]int32, n+1)
	pc := 0
	for pc < n {
		in := fc.Code[pc]
		newPC[pc] = int32(len(newCode))
		emitted := in
		consumed := 1
		if in.Op == VConst && pc+1 < n && !leader[pc+1] && reads[in.Dst] == 1 {
			nx := fc.Code[pc+1]
			if nx.Op >= VAdd && nx.Op <= VGe {
				t := in.Dst
				var a int32 = -1
				if nx.B == t && nx.A != t {
					a = nx.A
				} else if nx.A == t && nx.B != t && commutative(nx.Op) {
					a = nx.B
				}
				if a >= 0 && !((nx.Op == VDiv || nx.Op == VMod) && in.Imm == 0) {
					emitted = VInstr{Op: VAddI + (nx.Op - VAdd), Dst: nx.Dst, A: a, Imm: in.Imm, Src: int32(pc)}
					consumed = 2
					if isCmp(nx.Op) && pc+2 < n && !leader[pc+2] && reads[nx.Dst] == 1 {
						if bz := fc.Code[pc+2]; bz.Op == VBrz && bz.A == nx.Dst {
							emitted = VInstr{Op: VBrEqI + (nx.Op - VEq), A: a, Imm: emitted.Imm, Dst: int32(bz.Imm), Src: int32(pc)}
							consumed = 3
						}
					}
				}
			}
		} else if isCmp(in.Op) && pc+1 < n && !leader[pc+1] && reads[in.Dst] == 1 {
			if bz := fc.Code[pc+1]; bz.Op == VBrz && bz.A == in.Dst {
				emitted = VInstr{Op: VBrEq + (in.Op - VEq), A: in.A, B: in.B, Imm: bz.Imm, Src: int32(pc)}
				consumed = 2
			}
		}
		newCode = append(newCode, emitted)
		newPos = append(newPos, fc.Pos[pc])
		pc += consumed
	}
	newPC[n] = int32(len(newCode))
	// Branch targets still index the unfused code; remap them. Targets
	// are leaders, and leaders always start a slot, so the mapping is
	// always defined.
	for i := range newCode {
		in := &newCode[i]
		switch {
		case in.Op == VJump || in.Op == VBrz || (in.Op >= VBrEq && in.Op <= VBrGe):
			in.Imm = int64(newPC[in.Imm])
		case in.Op >= VBrEqI && in.Op <= VBrGeI:
			in.Dst = newPC[in.Dst]
		}
	}
	fc.Code, fc.Pos = newCode, newPos
}

// accessSize normalizes an IR access size to the VM's 1-or-8 model
// (the interpreter treats every non-1 size as 8).
func accessSize(size int) uint8 {
	if size == 1 {
		return 1
	}
	return 8
}

// Disasm renders the module's bytecode with the position table, for
// debugging and the kvet -bc listing.
func (m *Module) Disasm() string {
	var b strings.Builder
	for _, fc := range m.Funcs {
		fmt.Fprintf(&b, "func %s (frame %d bytes, %d regs, %d insns)\n",
			fc.Name, fc.FrameSize, fc.NumRegs, len(fc.Code))
		for pc := range fc.Code {
			in := &fc.Code[pc]
			var operands string
			switch in.Op {
			case VNop:
			case VConst:
				operands = fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
			case VStr:
				operands = fmt.Sprintf("r%d = &str[%d]", in.Dst, in.Imm)
			case VMov:
				operands = fmt.Sprintf("r%d = r%d", in.Dst, in.A)
			case VAdd, VSub, VMul, VDiv, VMod, VAnd, VOr, VXor, VShl, VShr,
				VEq, VNe, VLt, VLe, VGt, VGe:
				operands = fmt.Sprintf("r%d = r%d, r%d", in.Dst, in.A, in.B)
			case VNeg, VNot, VBnot:
				operands = fmt.Sprintf("r%d = r%d", in.Dst, in.A)
			case VLoad1, VLoad8:
				operands = fmt.Sprintf("r%d = [r%d]", in.Dst, in.A)
			case VStore1, VStore8:
				operands = fmt.Sprintf("[r%d] = r%d", in.A, in.B)
			case VFrame:
				operands = fmt.Sprintf("r%d = fp+%d", in.Dst, in.Imm)
			case VCall:
				target := "?"
				if in.Imm >= 0 {
					target = m.Funcs[in.Imm].Name
				} else {
					target = m.Builtins[-(in.Imm+1)] + "!"
				}
				operands = fmt.Sprintf("r%d = %s args[%d:%d]", in.Dst, target, in.A, in.A+in.B)
			case VJump:
				operands = fmt.Sprintf("-> %d", in.Imm)
			case VBrz:
				operands = fmt.Sprintf("r%d -> %d", in.A, in.Imm)
			case VRet:
				operands = fmt.Sprintf("r%d", in.A)
			case VCheck:
				kind := "load"
				if in.Imm == 1 {
					kind = "store"
				}
				operands = fmt.Sprintf("%s [r%d] size %d", kind, in.A, in.Sz)
			case VArith:
				operands = fmt.Sprintf("r%d = base r%d derived r%d", in.Dst, in.A, in.B)
			case VAddI, VSubI, VMulI, VDivI, VModI, VAndI, VOrI, VXorI, VShlI, VShrI,
				VEqI, VNeI, VLtI, VLeI, VGtI, VGeI:
				operands = fmt.Sprintf("r%d = r%d, %d", in.Dst, in.A, in.Imm)
			case VBrEq, VBrNe, VBrLt, VBrLe, VBrGt, VBrGe:
				operands = fmt.Sprintf("unless r%d, r%d -> %d", in.A, in.B, in.Imm)
			case VBrEqI, VBrNeI, VBrLtI, VBrLeI, VBrGtI, VBrGeI:
				operands = fmt.Sprintf("unless r%d, %d -> %d", in.A, in.Imm, in.Dst)
			}
			pos := ""
			if p := fc.Pos[pc]; p.Line != 0 {
				pos = fmt.Sprintf("  ; %d:%d", p.Line, p.Col)
			}
			fmt.Fprintf(&b, "%4d: %-7s %s%s\n", pc, in.Op, operands, pos)
		}
	}
	return b.String()
}
