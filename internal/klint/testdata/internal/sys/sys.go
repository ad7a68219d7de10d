// Package sys is the chargecov fixture: exported *Proc methods are
// syscall handlers and must charge their boundary crossing on every
// path.
package sys

import "errors"

// Nr is a syscall number.
type Nr int

// Fixture syscall numbers.
const (
	NrOpen Nr = iota
	NrClose
)

var errBad = errors.New("bad")

// Proc is the per-process syscall context.
type Proc struct{ depth int }

func (pr *Proc) enter(nr Nr) { pr.depth++ }
func (pr *Proc) exit(nr Nr)  { pr.depth-- }
func (pr *Proc) kcall()      { pr.depth += 2 }

// Open is conforming: the deferred exit covers every path.
func (pr *Proc) Open(path string) error {
	pr.enter(NrOpen)
	defer pr.exit(NrOpen)
	if path == "" {
		return errBad
	}
	return nil
}

// Read is conforming: every return is preceded by an explicit exit.
func (pr *Proc) Read(fd int) (int, error) {
	pr.enter(NrOpen)
	if fd < 0 {
		pr.exit(NrOpen)
		return 0, errBad
	}
	pr.exit(NrOpen)
	return fd, nil
}

// KernelCall is conforming: the kernel-context entry, charged via
// kcall.
func (pr *Proc) KernelCall() { pr.kcall() }

// Close leaks the crossing on its error path.
func (pr *Proc) Close(fd int) error {
	pr.enter(NrClose)
	if fd < 0 {
		return errBad // want chargecov "returns without pr.exit on this path"
	}
	pr.exit(NrClose)
	return nil
}

// Poke enters and falls off the end without ever exiting.
func (pr *Proc) Poke() {
	pr.enter(NrOpen)
} // want chargecov "can fall off the end without pr.exit"

// Free names a syscall number but never charges anything.
func (pr *Proc) Free() error { // want chargecov "names a syscall number but never charges the crossing"
	_ = NrOpen
	return nil
}
