package minic

import (
	"errors"
	"fmt"
)

// BinOp is an integer binary-operator code. The parser maps source
// operator spellings to codes once (ParseBinOp); everything downstream
// — the optimizer, the kcheck abstract interpreter, the tree-walking
// interpreter, and the bytecode VM — dispatches on the integer. The
// string form exists only at parse/print boundaries.
type BinOp uint8

// Binary operator codes. The comparison block is contiguous so IsCmp
// is a range test, and the whole enum is laid out to mirror the VM's
// specialized opcodes (VAdd+op).
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
	NumBinOps
)

var binOpNames = [NumBinOps]string{
	"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"==", "!=", "<", "<=", ">", ">=",
}

func (op BinOp) String() string {
	if op < NumBinOps {
		return binOpNames[op]
	}
	return fmt.Sprintf("binop%d", int(op))
}

// IsCmp reports whether op is a comparison (result always 0 or 1).
func (op BinOp) IsCmp() bool { return op >= BinEq && op <= BinGe }

// Negate returns the comparison with the opposite truth value
// (ok=false when op is not a comparison).
func (op BinOp) Negate() (BinOp, bool) {
	switch op {
	case BinEq:
		return BinNe, true
	case BinNe:
		return BinEq, true
	case BinLt:
		return BinGe, true
	case BinLe:
		return BinGt, true
	case BinGt:
		return BinLe, true
	case BinGe:
		return BinLt, true
	}
	return op, false
}

// ParseBinOp resolves a source-level operator spelling.
func ParseBinOp(s string) (BinOp, bool) {
	for i, n := range binOpNames {
		if n == s {
			return BinOp(i), true
		}
	}
	return 0, false
}

// mustBinOp is the parse-boundary helper for operators the grammar
// already guarantees are valid.
func mustBinOp(s string) BinOp {
	op, ok := ParseBinOp(s)
	if !ok {
		panic("minic: internal: unknown binary operator " + s)
	}
	return op
}

// Division errors are shared values so the interpreter, the VM, and
// constant folding produce the identical error.
var (
	errDivZero = errors.New("minic: division by zero")
	errModZero = errors.New("minic: modulo by zero")
)

// EvalBinOp evaluates a binary operator over two int64 values with
// the execution semantics both engines share: Go int64 wrapping,
// shifts masked by &63, comparisons yielding 0/1.
func EvalBinOp(op BinOp, a, b int64) (int64, error) {
	switch op {
	case BinAdd:
		return a + b, nil
	case BinSub:
		return a - b, nil
	case BinMul:
		return a * b, nil
	case BinDiv:
		if b == 0 {
			return 0, errDivZero
		}
		return a / b, nil
	case BinMod:
		if b == 0 {
			return 0, errModZero
		}
		return a % b, nil
	case BinAnd:
		return a & b, nil
	case BinOr:
		return a | b, nil
	case BinXor:
		return a ^ b, nil
	case BinShl:
		return a << (uint64(b) & 63), nil
	case BinShr:
		return a >> (uint64(b) & 63), nil
	case BinEq:
		return b2i(a == b), nil
	case BinNe:
		return b2i(a != b), nil
	case BinLt:
		return b2i(a < b), nil
	case BinLe:
		return b2i(a <= b), nil
	case BinGt:
		return b2i(a > b), nil
	case BinGe:
		return b2i(a >= b), nil
	}
	return 0, fmt.Errorf("minic: unknown operator %q", op)
}

// UnOp is an integer unary-operator code.
type UnOp uint8

// Unary operator codes, mirroring the VM's VNeg block.
const (
	UnNeg UnOp = iota
	UnNot
	UnBnot
	NumUnOps
)

var unOpNames = [NumUnOps]string{"neg", "not", "bnot"}

func (op UnOp) String() string {
	if op < NumUnOps {
		return unOpNames[op]
	}
	return fmt.Sprintf("unop%d", int(op))
}

// EvalUnOp evaluates a unary operator with the shared execution
// semantics.
func EvalUnOp(op UnOp, a int64) int64 {
	switch op {
	case UnNot:
		return b2i(a == 0)
	case UnBnot:
		return ^a
	}
	return -a
}
