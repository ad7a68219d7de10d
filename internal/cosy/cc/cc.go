// Package cc is Cosy-GCC: the compiler component that "automates the
// tedious task of extracting Cosy operations out of a marked C-code
// segment and packing them into a compound, so the translation of
// marked C-code to an intermediate representation is entirely
// transparent to the user" (§2.3).
//
// Users bracket the bottleneck region with COSY_START; and COSY_END;
// markers. The region is mini-C: minic lowers it, and Cosy-GCC
// translates minic's IR one instruction at a time, so a region means
// what the same statements mean in a minic function. It may call the
// sys_* system calls, and cosy_return(expr) ends it wherever it runs.
// Register scalars compile to compound registers; arrays,
// address-taken scalars and string literals live in the compound's
// data segment, so data flows between system calls without ever
// crossing the user/kernel boundary.
//
// Dependency resolution ("Cosy-GCC also resolves dependencies among
// parameters of the Cosy operations, and determines if the input
// parameter of the operations is the output of any of the previous
// operations") falls out of register allocation: a syscall result
// lives in a register, and any later operation naming that variable
// reads the same register — a zero-copy data dependency inside the
// kernel.
package cc

import (
	"errors"
	"fmt"

	"repro/internal/cosy/lang"
	"repro/internal/minic"
	"repro/internal/sys"
)

// Markers recognized in source.
const (
	MarkStart = "COSY_START"
	MarkEnd   = "COSY_END"
)

// SyscallNames maps region function names to syscall numbers.
var SyscallNames = map[string]sys.Nr{
	"sys_open":   sys.NrOpen,
	"sys_close":  sys.NrClose,
	"sys_read":   sys.NrRead,
	"sys_write":  sys.NrWrite,
	"sys_lseek":  sys.NrLseek,
	"sys_stat":   sys.NrStat,
	"sys_fstat":  sys.NrFstat,
	"sys_creat":  sys.NrCreat,
	"sys_unlink": sys.NrUnlink,
	"sys_mkdir":  sys.NrMkdir,
}

// ErrNoRegion is returned when the function has no marked region.
var ErrNoRegion = errors.New("cosy-gcc: no COSY_START/COSY_END region found")

// CompileMarked parses src, finds fnName, extracts the marked region,
// and compiles it into a compound.
func CompileMarked(src, fnName string) (*lang.Compound, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	fd := prog.Func(fnName)
	if fd == nil {
		return nil, fmt.Errorf("cosy-gcc: function %q not found (have %s)", fnName, prog.FuncNames())
	}
	region, err := extractRegion(fd.Body)
	if err != nil {
		return nil, err
	}
	return CompileRegion(region)
}

// extractRegion returns the statements between the markers at the top
// level of the function body.
func extractRegion(body *minic.Block) ([]minic.Stmt, error) {
	start, end := -1, -1
	for i, s := range body.Stmts {
		if m, ok := s.(*minic.MarkerStmt); ok {
			switch m.Name {
			case MarkStart:
				if start >= 0 {
					return nil, errors.New("cosy-gcc: nested COSY_START")
				}
				start = i
			case MarkEnd:
				if start < 0 {
					return nil, errors.New("cosy-gcc: COSY_END before COSY_START")
				}
				end = i
			}
		}
	}
	if start < 0 || end < 0 {
		return nil, ErrNoRegion
	}
	return body.Stmts[start+1 : end], nil
}

// regionFn names the function a region is lowered as.
const regionFn = "cosy_region"

// frameBase is the data offset of a region's frame. It is nonzero, so
// no local and no string literal has address 0 and compares equal to a
// null pointer, and 8-aligned, so the frame's own alignment holds.
const frameBase = 8

// CompileRegion compiles a statement list into a compound. minic
// lowers the statements as the body of an int function, with no
// optimization and no KGCC pass, and each IR instruction becomes the
// compound operation that means the same thing. The function's frame
// sits at data offset frameBase and its string literals follow it, so
// frame and string addresses are constants; calls to SyscallNames
// become OpSys, and cosy_return(x) and the function's closing return
// become OpEnd.
func CompileRegion(stmts []minic.Stmt) (*lang.Compound, error) {
	unit, err := minic.Compile(&minic.Program{Funcs: []*minic.FuncDecl{
		{Name: regionFn, Ret: minic.IntType, Body: &minic.Block{Stmts: stmts}},
	}})
	if err != nil {
		return nil, err
	}
	fn := unit.Fn(regionFn)
	fold(fn)

	c := &lang.Compound{NRegs: fn.NumRegs, ShmSize: frameBase + fn.FrameSize}
	strAt := make([]int64, len(fn.Strings))
	for i, s := range fn.Strings {
		strAt[i] = int64(c.ShmSize)
		c.Init = append(c.Init, lang.ShmInit{Off: c.ShmSize, Data: append([]byte(s), 0)})
		c.ShmSize += len(s) + 1
	}
	// at[i] is the index of IR instruction i's compound operation:
	// OpNop and OpMarker emit none.
	at := make([]int64, len(fn.Code)+1)
	for i, in := range fn.Code {
		at[i+1] = at[i]
		if in.Op != minic.OpNop && in.Op != minic.OpMarker {
			at[i+1]++
		}
	}
	for i, in := range fn.Code {
		op := lang.Instr{Dst: lang.NoReg, A: lang.NoReg, B: lang.NoReg}
		switch in.Op {
		case minic.OpNop, minic.OpMarker:
			continue
		case minic.OpConst:
			op.Op, op.Dst, op.Imm = lang.OpConst, lang.Reg(in.Dst), in.Imm
		case minic.OpFrameAddr:
			op.Op, op.Dst, op.Imm = lang.OpConst, lang.Reg(in.Dst), frameBase+in.Imm
		case minic.OpStrAddr:
			op.Op, op.Dst, op.Imm = lang.OpConst, lang.Reg(in.Dst), strAt[in.Imm]
		case minic.OpMov:
			op.Op, op.Dst, op.A = lang.OpMov, lang.Reg(in.Dst), lang.Reg(in.A)
		case minic.OpBin:
			op.Op, op.Dst, op.A, op.B, op.Sub = lang.OpBin, lang.Reg(in.Dst), lang.Reg(in.A), lang.Reg(in.B), uint8(in.BinOp)
		case minic.OpUn:
			op.Op, op.Dst, op.A, op.Sub = lang.OpUn, lang.Reg(in.Dst), lang.Reg(in.A), uint8(in.UnOp)
		case minic.OpLoad:
			op.Op, op.Dst, op.A, op.Sub = lang.OpLoad, lang.Reg(in.Dst), lang.Reg(in.A), uint8(in.Size)
		case minic.OpStore:
			op.Op, op.A, op.B, op.Sub = lang.OpStore, lang.Reg(in.A), lang.Reg(in.B), uint8(in.Size)
		case minic.OpJump:
			op.Op, op.Imm = lang.OpJmp, at[in.Imm]
		case minic.OpBranchZ:
			op.Op, op.A, op.Imm = lang.OpBrz, lang.Reg(in.A), at[in.Imm]
		case minic.OpRet:
			// Only the closing return is minic's own; any other is
			// the region's.
			if i != len(fn.Code)-1 {
				return nil, errors.New("cosy-gcc: use cosy_return(expr) inside the region, not return")
			}
			op.Op = lang.OpEnd
		case minic.OpCall:
			if in.Sym == "cosy_return" {
				if len(in.Args) != 1 {
					return nil, errors.New("cosy-gcc: cosy_return takes one argument")
				}
				op.Op, op.A = lang.OpEnd, lang.Reg(in.Args[0])
				break
			}
			nr, ok := SyscallNames[in.Sym]
			if !ok {
				return nil, fmt.Errorf("cosy-gcc: %q is not a Cosy-callable system call", in.Sym)
			}
			op.Op, op.Dst, op.Imm = lang.OpSys, lang.Reg(in.Dst), int64(nr)
			for _, a := range in.Args {
				op.Args = append(op.Args, lang.Reg(a))
			}
		default:
			return nil, fmt.Errorf("cosy-gcc: no compound operation for %v", in.Op)
		}
		c.Code = append(c.Code, op)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// fold drops what minic's lowering leaves for a general back end and
// a compound does not need, turning each dropped instruction into
// OpNop so jump targets keep their IR indices:
//   - a move x = t on which no jump lands, whose source t has no other
//     reader and is defined by the instruction just before it: that
//     instruction writes x instead (minic lowers x += y as t = x + y;
//     x = t);
//   - the closing return after a final cosy_return, which no path
//     reaches.
func fold(fn *minic.Fn) {
	code := fn.Code
	reads := make([]int, fn.NumRegs)
	target := make([]bool, len(code))
	count := func(r minic.Reg) { reads[r]++ }
	for i, in := range code {
		if in.Op == minic.OpJump || in.Op == minic.OpBranchZ {
			target[in.Imm] = true
		}
		code[i].EachRead(count)
	}
	for i := 1; i < len(code); i++ {
		def, mov := &code[i-1], &code[i]
		if mov.Op == minic.OpMov && !target[i] && reads[mov.A] == 1 && def.Op.WritesDst() && def.Dst == mov.A {
			def.Dst, *mov = mov.Dst, minic.Instr{Op: minic.OpNop}
		}
	}
	if last := len(code) - 1; last > 0 && !target[last] &&
		code[last-1].Op == minic.OpCall && code[last-1].Sym == "cosy_return" {
		code[last] = minic.Instr{Op: minic.OpNop}
	}
}
