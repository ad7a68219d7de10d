package minic

import "fmt"

// OptStats reports what the optimizer did. Common-subexpression
// elimination is the pass the paper highlights: "common subexpression
// elimination allowed us to reduce the number of checks inserted by
// more than half for typical kernel code" (§3.4) — the same pass runs
// on checks in package kgcc; here it runs on ordinary expressions.
type OptStats struct {
	Folded int // constant-folded instructions
	CSE    int // common subexpressions replaced with moves
	Dead   int // dead instructions removed (nop-ified)
}

func (s OptStats) String() string {
	return fmt.Sprintf("folded %d, cse %d, dead %d", s.Folded, s.CSE, s.Dead)
}

// Optimize runs constant folding, local CSE, and dead-code
// elimination on fn. Instructions are replaced with OpNop rather than
// removed so jump targets stay valid.
func Optimize(fn *Fn) OptStats {
	var stats OptStats
	leaders := blockLeaders(fn)
	stats.Folded += foldConstants(fn, leaders)
	stats.CSE += localCSE(fn, leaders)
	stats.Dead += deadCode(fn)
	return stats
}

// blockLeaders returns a set of instruction indices that start basic
// blocks.
func blockLeaders(fn *Fn) map[int]bool {
	leaders := map[int]bool{0: true}
	for i, in := range fn.Code {
		switch in.Op {
		case OpJump:
			leaders[int(in.Imm)] = true
			leaders[i+1] = true
		case OpBranchZ:
			leaders[int(in.Imm)] = true
			leaders[i+1] = true
		case OpRet:
			leaders[i+1] = true
		}
	}
	return leaders
}

// foldConstants evaluates OpBin/OpUn with constant operands, tracking
// constants within each basic block.
func foldConstants(fn *Fn, leaders map[int]bool) int {
	folded := 0
	consts := map[Reg]int64{}
	for i := range fn.Code {
		if leaders[i] {
			consts = map[Reg]int64{}
		}
		in := &fn.Code[i]
		switch in.Op {
		case OpConst:
			consts[in.Dst] = in.Imm
		case OpMov:
			if v, ok := consts[in.A]; ok {
				*in = Instr{Op: OpConst, Dst: in.Dst, Imm: v, Pos: in.Pos}
				consts[in.Dst] = v
				folded++
			} else {
				delete(consts, in.Dst)
			}
		case OpBin:
			a, okA := consts[in.A]
			b, okB := consts[in.B]
			if okA && okB && !in.PtrArith {
				if v, err := EvalBinOp(in.BinOp, a, b); err == nil {
					*in = Instr{Op: OpConst, Dst: in.Dst, Imm: v, Pos: in.Pos}
					consts[in.Dst] = v
					folded++
					continue
				}
			}
			delete(consts, in.Dst)
		case OpUn:
			if a, ok := consts[in.A]; ok {
				v := EvalUnOp(in.UnOp, a)
				*in = Instr{Op: OpConst, Dst: in.Dst, Imm: v, Pos: in.Pos}
				consts[in.Dst] = v
				folded++
				continue
			}
			delete(consts, in.Dst)
		default:
			if in.Dst != NoReg && in.Op.WritesDst() {
				delete(consts, in.Dst)
			}
		}
	}
	return folded
}

// localCSE replaces recomputed pure expressions within a basic block
// with moves from the earlier result.
func localCSE(fn *Fn, leaders map[int]bool) int {
	replaced := 0
	avail := map[string]Reg{}  // expression key -> register holding it
	uses := map[Reg][]string{} // register -> keys mentioning it
	kill := func(r Reg) {
		for _, k := range uses[r] {
			delete(avail, k)
		}
		delete(uses, r)
		// Also drop expressions whose result register was r.
		for k, v := range avail {
			if v == r {
				delete(avail, k)
			}
		}
	}
	record := func(key string, in *Instr) {
		avail[key] = in.Dst
		uses[in.A] = append(uses[in.A], key)
		if in.Op == OpBin {
			uses[in.B] = append(uses[in.B], key)
		}
	}
	for i := range fn.Code {
		if leaders[i] {
			avail = map[string]Reg{}
			uses = map[Reg][]string{}
		}
		in := &fn.Code[i]
		switch in.Op {
		case OpBin:
			key := fmt.Sprintf("b%s:%d:%d:%v", in.BinOp, in.A, in.B, in.PtrArith)
			if src, ok := avail[key]; ok && src != in.Dst {
				dst := in.Dst
				*in = Instr{Op: OpMov, Dst: dst, A: src, Pos: in.Pos}
				replaced++
				kill(dst)
				continue
			}
			dst := in.Dst
			kill(dst)
			record(key, in)
		case OpUn:
			key := fmt.Sprintf("u%s:%d", in.UnOp, in.A)
			if src, ok := avail[key]; ok && src != in.Dst {
				dst := in.Dst
				*in = Instr{Op: OpMov, Dst: dst, A: src, Pos: in.Pos}
				replaced++
				kill(dst)
				continue
			}
			dst := in.Dst
			kill(dst)
			record(key, in)
		case OpFrameAddr:
			key := fmt.Sprintf("f%d", in.Imm)
			if src, ok := avail[key]; ok && src != in.Dst {
				dst := in.Dst
				*in = Instr{Op: OpMov, Dst: dst, A: src, Pos: in.Pos}
				replaced++
				kill(dst)
				continue
			}
			kill(in.Dst)
			avail[key] = in.Dst
		default:
			if in.Dst != NoReg && in.Op.WritesDst() {
				kill(in.Dst)
			}
			// Stores invalidate loads; we never CSE loads, so nothing
			// more to do.
		}
	}
	return replaced
}

// deadCode nop-ifies pure instructions whose results are never read.
func deadCode(fn *Fn) int {
	removed := 0
	for {
		used := map[Reg]bool{}
		mark := func(r Reg) { used[r] = true }
		for i := range fn.Code {
			fn.Code[i].EachRead(mark)
		}
		changed := 0
		for i := range fn.Code {
			in := &fn.Code[i]
			switch in.Op {
			case OpConst, OpStrAddr, OpMov, OpBin, OpUn, OpFrameAddr:
				if in.Dst != NoReg && !used[in.Dst] {
					*in = Instr{Op: OpNop}
					changed++
				}
			}
		}
		removed += changed
		if changed == 0 {
			return removed
		}
	}
}
