package klint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Chargecov proves no system call can complete a boundary crossing
// for free. Syscall handlers in internal/sys are exported *Proc
// methods; each one either
//
//   - brackets the crossing with pr.enter / pr.exit — enter charges
//     user dispatch + trap + copyin, exit charges copyout and closes
//     the kperf/ktrace spans. The analyzer walks every control-flow
//     path and requires pr.exit (called or deferred) before every
//     return, error paths included: an unbalanced path would leave
//     the process stuck in kernel mode with the crossing half-charged;
//   - or is the kernel-context entry (KernelCall, which ring drains
//     and Cosy compounds use) charging Costs.KernelCall via pr.kcall.
//
// A method that names an Nr constant but does none of the above is a
// handler that crosses for free and is flagged.
var Chargecov = &Analyzer{
	Name: "chargecov",
	Doc:  "every syscall handler charges its crossing: enter/exit balanced on all paths, or kcall",
	Run:  runChargecov,
}

func runChargecov(pass *Pass) error {
	if pass.Pkg.ImportPath != "repro/internal/sys" {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recv := procReceiver(info, fd)
			if recv == nil {
				continue
			}
			cc := &covChecker{pass: pass, info: info, recv: recv, fd: fd}
			cc.check()
		}
	}
	return nil
}

// procReceiver returns the receiver object if fd is a method on
// *Proc.
func procReceiver(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil
	}
	field := fd.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return nil
	}
	id, ok := star.X.(*ast.Ident)
	if !ok || id.Name != "Proc" {
		return nil
	}
	if len(field.Names) != 1 {
		return nil
	}
	return info.Defs[field.Names[0]]
}

type covChecker struct {
	pass *Pass
	info *types.Info
	recv types.Object
	fd   *ast.FuncDecl
}

// recvCall reports whether call is pr.<name>(...) on the method's
// receiver.
func (cc *covChecker) recvCall(call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && cc.info.Uses[id] == cc.recv
}

func (cc *covChecker) callsAny(names ...string) bool {
	found := false
	ast.Inspect(cc.fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, name := range names {
				if cc.recvCall(call, name) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// chargesSomething reports whether the body contains any
// Charge-family call (Charge/ChargeUser/ChargeSys/chargeExec/... on any
// receiver).
func (cc *covChecker) chargesSomething() bool {
	found := false
	ast.Inspect(cc.fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if strings.HasPrefix(name, "Charge") || strings.HasPrefix(name, "charge") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// mentionsNr reports whether the body references a constant of type
// sys.Nr (the signature of a handler that names its syscall number).
func (cc *covChecker) mentionsNr() bool {
	found := false
	ast.Inspect(cc.fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, ok := cc.info.Uses[id].(*types.Const); ok {
				if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == "Nr" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func (cc *covChecker) check() {
	switch {
	case cc.callsAny("enter"):
		st, terminated := cc.walkStmts(cc.fd.Body.List, covState{})
		if !terminated && !st.exited {
			cc.pass.Reportf(cc.fd.Body.Rbrace,
				"handler %s can fall off the end without pr.exit: the crossing never completes", cc.fd.Name.Name)
		}
	case cc.callsAny("kcall"):
		// Charged by construction.
	case cc.mentionsNr() && !cc.chargesSomething():
		cc.pass.Reportf(cc.fd.Pos(),
			"handler %s names a syscall number but never charges the crossing (no enter/exit, kcall, or Charge call)", cc.fd.Name.Name)
	}
}

// covState is the abstract state of the exit-coverage walk: has
// pr.exit already run (called on this path, or deferred earlier)?
type covState struct{ exited bool }

// walkStmts interprets a statement list, reporting any return
// reachable with st.exited == false. The second result is true when
// every path through the list terminates (returns or panics).
func (cc *covChecker) walkStmts(list []ast.Stmt, st covState) (covState, bool) {
	for _, s := range list {
		var term bool
		st, term = cc.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (cc *covChecker) walkStmt(s ast.Stmt, st covState) (covState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if cc.recvCall(call, "exit") {
				st.exited = true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return st, true
			}
		}
		return st, false
	case *ast.DeferStmt:
		if cc.recvCall(s.Call, "exit") {
			st.exited = true
		}
		return st, false
	case *ast.ReturnStmt:
		if !st.exited {
			cc.pass.Reportf(s.Pos(),
				"handler %s returns without pr.exit on this path: the crossing completes for free and the process never leaves kernel mode", cc.fd.Name.Name)
		}
		return st, true
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = cc.walkStmt(s.Init, st)
		}
		thenSt, thenTerm := cc.walkStmts(s.Body.List, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = cc.walkStmt(s.Else, st)
		}
		if thenTerm && elseTerm {
			return st, true
		}
		out := covState{exited: true}
		if !thenTerm {
			out.exited = out.exited && thenSt.exited
		}
		if !elseTerm {
			out.exited = out.exited && elseSt.exited
		}
		return out, false
	case *ast.BlockStmt:
		return cc.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return cc.walkStmt(s.Stmt, st)
	case *ast.ForStmt:
		// The body may run zero times; returns inside are checked
		// against the entry state.
		cc.walkStmts(s.Body.List, st)
		return st, false
	case *ast.RangeStmt:
		cc.walkStmts(s.Body.List, st)
		return st, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		hasDefault := false
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				st, _ = cc.walkStmt(sw.Init, st)
			}
			body = sw.Body
		case *ast.TypeSwitchStmt:
			body = sw.Body
		case *ast.SelectStmt:
			body = sw.Body
			hasDefault = true // select blocks until some case runs
		}
		out := covState{exited: true}
		allTerm := true
		for _, clause := range body.List {
			var stmts []ast.Stmt
			switch clause := clause.(type) {
			case *ast.CaseClause:
				stmts = clause.Body
				if clause.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				stmts = clause.Body
			}
			cSt, cTerm := cc.walkStmts(stmts, st)
			if !cTerm {
				allTerm = false
				out.exited = out.exited && cSt.exited
			}
		}
		if !hasDefault {
			// Fall-past path when no case matches.
			allTerm = false
			out.exited = out.exited && st.exited
		}
		if allTerm && len(body.List) > 0 {
			return st, true
		}
		return out, false
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.GoStmt,
		*ast.SendStmt, *ast.EmptyStmt, *ast.BranchStmt:
		return st, false
	}
	return st, false
}
