// Package cc is Cosy-GCC: the compiler component that "automates the
// tedious task of extracting Cosy operations out of a marked C-code
// segment and packing them into a compound, so the translation of
// marked C-code to an intermediate representation is entirely
// transparent to the user" (§2.3).
//
// Users bracket the bottleneck region with COSY_START; and COSY_END;
// markers. The region may declare int/char scalars and char/int
// arrays, use loops, conditionals and arithmetic, call sys_* system
// calls, and finish with cosy_return(expr). Scalars compile to
// compound registers; arrays and string literals are placed in the
// shared buffer, so data flows between system calls without ever
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
	"repro/internal/cosy/lib"
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

// CompileRegion compiles a statement list into a compound.
func CompileRegion(stmts []minic.Stmt) (*lang.Compound, error) {
	rc := &regionCompiler{
		b:    lib.New(),
		vars: map[string]*rvar{},
	}
	for _, s := range stmts {
		if err := rc.stmt(s); err != nil {
			return nil, err
		}
	}
	result := rc.result
	if !rc.hasResult {
		result = rc.b.Const(0)
	}
	return rc.b.End(result)
}

// rvar is a region variable: a scalar in a register or a buffer in
// the shared region.
type rvar struct {
	reg    lang.Reg // scalar value
	isBuf  bool
	off    int // shm offset for buffers
	elem   int // element size for buffers
	length int // element count for buffers
}

type regionCompiler struct {
	b         *lib.Builder
	vars      map[string]*rvar
	result    lang.Reg
	hasResult bool
}

func (rc *regionCompiler) stmt(s minic.Stmt) error {
	switch st := s.(type) {
	case *minic.Block:
		for _, c := range st.Stmts {
			if err := rc.stmt(c); err != nil {
				return err
			}
		}
		return nil
	case *minic.DeclStmt:
		return rc.decl(st)
	case *minic.AssignStmt:
		return rc.assign(st)
	case *minic.ExprStmt:
		_, err := rc.expr(st.X)
		return err
	case *minic.IfStmt:
		return rc.ifStmt(st)
	case *minic.WhileStmt:
		return rc.loop(nil, st.Cond, nil, st.Body)
	case *minic.ForStmt:
		if st.Init != nil {
			if err := rc.stmt(st.Init); err != nil {
				return err
			}
		}
		return rc.loop(nil, st.Cond, st.Post, st.Body)
	case *minic.MarkerStmt:
		return nil
	case *minic.ReturnStmt:
		return errors.New("cosy-gcc: use cosy_return(expr) inside the region, not return")
	}
	return fmt.Errorf("cosy-gcc: unsupported statement %T in region", s)
}

func (rc *regionCompiler) decl(st *minic.DeclStmt) error {
	if _, dup := rc.vars[st.Name]; dup {
		return fmt.Errorf("cosy-gcc: redeclaration of %q", st.Name)
	}
	switch st.T.Kind {
	case minic.TypeArr:
		elem := st.T.Elem.Size()
		off := rc.b.Alloc(st.T.Size())
		rc.vars[st.Name] = &rvar{isBuf: true, off: off, elem: elem, length: st.T.ArrLen}
		if st.Init != nil {
			return fmt.Errorf("cosy-gcc: array initializers unsupported (%q)", st.Name)
		}
		return nil
	case minic.TypeInt, minic.TypeChar:
		r := rc.b.Reg()
		rc.vars[st.Name] = &rvar{reg: r}
		if st.Init != nil {
			v, err := rc.expr(st.Init)
			if err != nil {
				return err
			}
			rc.b.Mov(r, v)
		} else {
			z := rc.b.Const(0)
			rc.b.Mov(r, z)
		}
		return nil
	case minic.TypePtr:
		// char *p = "literal" or pointer into a buffer.
		r := rc.b.Reg()
		rc.vars[st.Name] = &rvar{reg: r}
		if st.Init == nil {
			z := rc.b.Const(0)
			rc.b.Mov(r, z)
			return nil
		}
		v, err := rc.expr(st.Init)
		if err != nil {
			return err
		}
		rc.b.Mov(r, v)
		return nil
	}
	return fmt.Errorf("cosy-gcc: unsupported declaration type %v", st.T)
}

func (rc *regionCompiler) assign(st *minic.AssignStmt) error {
	rhs, err := rc.expr(st.RHS)
	if err != nil {
		return err
	}
	switch lhs := st.LHS.(type) {
	case *minic.VarRef:
		v, ok := rc.vars[lhs.Name]
		if !ok || v.isBuf {
			return fmt.Errorf("cosy-gcc: cannot assign to %q", lhs.Name)
		}
		if st.Op == "=" {
			rc.b.Mov(v.reg, rhs)
			return nil
		}
		rc.b.BinInto(v.reg, st.Op[:len(st.Op)-1], v.reg, rhs)
		return nil
	case *minic.Index:
		addr, size, err := rc.indexAddr(lhs)
		if err != nil {
			return err
		}
		val := rhs
		if st.Op != "=" {
			cur := rc.b.Load(size, addr)
			val = rc.b.Bin(st.Op[:len(st.Op)-1], cur, rhs)
		}
		rc.b.Store(size, addr, val)
		return nil
	}
	return fmt.Errorf("cosy-gcc: unsupported assignment target %T", st.LHS)
}

// indexAddr computes the shm address register for buf[i].
func (rc *regionCompiler) indexAddr(ix *minic.Index) (lang.Reg, int, error) {
	ref, ok := ix.X.(*minic.VarRef)
	if !ok {
		return 0, 0, fmt.Errorf("cosy-gcc: only direct buffer indexing supported")
	}
	v, ok := rc.vars[ref.Name]
	if !ok || !v.isBuf {
		return 0, 0, fmt.Errorf("cosy-gcc: %q is not a buffer", ref.Name)
	}
	idx, err := rc.expr(ix.I)
	if err != nil {
		return 0, 0, err
	}
	base := rc.b.Const(int64(v.off))
	scaled := idx
	if v.elem != 1 {
		c := rc.b.Const(int64(v.elem))
		scaled = rc.b.Bin("*", idx, c)
	}
	return rc.b.Bin("+", base, scaled), v.elem, nil
}

func (rc *regionCompiler) ifStmt(st *minic.IfStmt) error {
	cond, err := rc.expr(st.Cond)
	if err != nil {
		return err
	}
	els := rc.b.Brz(cond)
	if err := rc.stmt(st.Then); err != nil {
		return err
	}
	if st.Else == nil {
		els.Here()
		return nil
	}
	end := rc.b.Jmp()
	els.Here()
	if err := rc.stmt(st.Else); err != nil {
		return err
	}
	end.Here()
	return nil
}

func (rc *regionCompiler) loop(init minic.Stmt, cond minic.Expr, post minic.Stmt, body *minic.Block) error {
	top := rc.b.Here()
	var exit lib.Patch
	hasCond := cond != nil
	if hasCond {
		c, err := rc.expr(cond)
		if err != nil {
			return err
		}
		exit = rc.b.Brz(c)
	}
	if err := rc.stmt(body); err != nil {
		return err
	}
	if post != nil {
		if err := rc.stmt(post); err != nil {
			return err
		}
	}
	rc.b.JmpTo(top)
	if hasCond {
		exit.Here()
	}
	return nil
}

func (rc *regionCompiler) expr(e minic.Expr) (lang.Reg, error) {
	switch x := e.(type) {
	case *minic.NumLit:
		return rc.b.Const(x.Val), nil
	case *minic.StrLit:
		off := rc.b.String(x.Val)
		return rc.b.Const(int64(off)), nil
	case *minic.VarRef:
		v, ok := rc.vars[x.Name]
		if !ok {
			return 0, fmt.Errorf("cosy-gcc: undefined variable %q", x.Name)
		}
		if v.isBuf {
			return rc.b.Const(int64(v.off)), nil
		}
		return v.reg, nil
	case *minic.Binary:
		if x.Op == "&&" || x.Op == "||" {
			return rc.logical(x)
		}
		a, err := rc.expr(x.X)
		if err != nil {
			return 0, err
		}
		bb, err := rc.expr(x.Y)
		if err != nil {
			return 0, err
		}
		return rc.b.Bin(x.Op, a, bb), nil
	case *minic.Unary:
		switch x.Op {
		case "-":
			v, err := rc.expr(x.X)
			if err != nil {
				return 0, err
			}
			z := rc.b.Const(0)
			return rc.b.Bin("-", z, v), nil
		case "!":
			v, err := rc.expr(x.X)
			if err != nil {
				return 0, err
			}
			z := rc.b.Const(0)
			return rc.b.Bin("==", v, z), nil
		}
		return 0, fmt.Errorf("cosy-gcc: unsupported unary %q in region", x.Op)
	case *minic.Index:
		addr, size, err := rc.indexAddr(x)
		if err != nil {
			return 0, err
		}
		return rc.b.Load(size, addr), nil
	case *minic.Call:
		return rc.call(x)
	}
	return 0, fmt.Errorf("cosy-gcc: unsupported expression %T in region", e)
}

// logical lowers a && b and a || b as minic does: the result register
// holds a != 0, and a branch skips b when a already decides the
// result, so b's system calls and faults happen only when C's would.
func (rc *regionCompiler) logical(x *minic.Binary) (lang.Reg, error) {
	a, err := rc.expr(x.X)
	if err != nil {
		return 0, err
	}
	zero := rc.b.Const(0)
	dst := rc.b.Bin("!=", a, zero)
	decided := dst // &&: a == 0 decides
	if x.Op == "||" {
		decided = rc.b.Bin("==", a, zero) // ||: a != 0 decides
	}
	skip := rc.b.Brz(decided)
	bb, err := rc.expr(x.Y)
	if err != nil {
		return 0, err
	}
	rc.b.BinInto(dst, "!=", bb, zero)
	skip.Here()
	return dst, nil
}

func (rc *regionCompiler) call(x *minic.Call) (lang.Reg, error) {
	if x.Name == "cosy_return" {
		if len(x.Args) != 1 {
			return 0, errors.New("cosy-gcc: cosy_return takes one argument")
		}
		v, err := rc.expr(x.Args[0])
		if err != nil {
			return 0, err
		}
		rc.result = v
		rc.hasResult = true
		return v, nil
	}
	nr, ok := SyscallNames[x.Name]
	if !ok {
		return 0, fmt.Errorf("cosy-gcc: %q is not a Cosy-callable system call", x.Name)
	}
	var args []lang.Reg
	for _, a := range x.Args {
		r, err := rc.expr(a)
		if err != nil {
			return 0, err
		}
		args = append(args, r)
	}
	return rc.b.Sys(uint16(nr), args...), nil
}
