package sys

import "fmt"

// kcall charges the in-kernel dispatch of one kernel-context call.
func (pr *Proc) kcall() {
	pr.P.Charge(pr.K.M.Costs.KernelCall)
}

// KernelCall is the one kernel-context system call entry: the ring
// drain and Cosy compounds run the registry's body for nr on
// arguments they decoded into a. "The system call invocation by the
// Cosy kernel module is the same as a normal process and hence all
// the necessary checks are performed" (§2.3): path validation,
// descriptor checks and VFS work all happen, but there is no trap and
// no user-space copy, since payloads stay in kernel-mapped windows. It
// charges Costs.KernelCall; each caller charges its own kernel-rate
// copies. The process must already be in kernel mode.
func (pr *Proc) KernelCall(nr Nr, a *Args) (int64, error) {
	if int(nr) >= len(sysTable) || sysTable[nr].body == nil {
		return 0, fmt.Errorf("%w: %v", errNoSys, nr)
	}
	pr.kcall()
	return sysTable[nr].body(pr, a)
}
