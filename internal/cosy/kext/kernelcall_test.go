package kext

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/kernel"
	"repro/internal/kring"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// The parity fixture: a directory holding one file of parityData,
// open on fixtureFD.
const (
	parityDir  = "/p"
	parityFile = "/p/f"
	fixtureFD  = 0
	badFD      = 99
)

var parityData = []byte("the quick brown fox jumps over the lazy dog, then naps under a tree for the rest of the afternoon.")

// parityCase is one system call and its arguments.
type parityCase struct {
	name   string
	nr     sys.Nr
	path   string
	fd     int
	flags  int
	off    int64
	whence int
	n      int   // payload bytes of a read or write
	want   error // the trap call's error sentinel; nil for success
}

// parityResult is what every submission path must agree on: the
// call's result and output bytes (data read, or the stat record), its
// error, and the fixture directory's listing afterwards.
type parityResult struct {
	res     int64
	out     []byte
	err     error
	listing []string
}

func parityFixture(pr *sys.Proc) error {
	if err := pr.Mkdir(parityDir); err != nil {
		return err
	}
	fd, err := pr.Creat(parityFile)
	if err != nil {
		return err
	}
	ub, err := pr.Mmap(len(parityData))
	if err != nil {
		return err
	}
	if err := pr.Poke(ub, parityData); err != nil {
		return err
	}
	if _, err := pr.Write(fd, ub); err != nil {
		return err
	}
	if err := pr.Close(fd); err != nil {
		return err
	}
	if fd, err = pr.Open(parityFile, sys.ORdwr); err != nil || fd != fixtureFD {
		return fmt.Errorf("fixture open: fd %d, %v", fd, err)
	}
	return nil
}

// parityListing lists the fixture directory as "name type size".
func parityListing(pr *sys.Proc) ([]string, error) {
	fd, err := pr.Open(parityDir, sys.ORdonly)
	if err != nil {
		return nil, err
	}
	ents, err := pr.Getdents(fd)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		a, err := pr.Stat(parityDir + "/" + e.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%s %v %d", e.Name, a.Type, a.Size))
	}
	return out, pr.Close(fd)
}

// trapCall makes the call through its trap method.
func trapCall(pr *sys.Proc, c parityCase) (int64, []byte, error) {
	switch c.nr {
	case sys.NrOpen:
		fd, err := pr.Open(c.path, c.flags)
		return int64(fd), nil, err
	case sys.NrCreat:
		fd, err := pr.Creat(c.path)
		return int64(fd), nil, err
	case sys.NrClose:
		return 0, nil, pr.Close(c.fd)
	case sys.NrRead, sys.NrWrite:
		ub, err := pr.Mmap(c.n)
		if err != nil {
			return 0, nil, err
		}
		if c.nr == sys.NrWrite {
			n, err := pr.Write(c.fd, ub)
			return int64(n), nil, err
		}
		n, err := pr.Read(c.fd, ub)
		if err != nil {
			return 0, nil, err
		}
		out, err := pr.Peek(ub, n)
		return int64(n), out, err
	case sys.NrLseek:
		off, err := pr.Lseek(c.fd, c.off, c.whence)
		return off, nil, err
	case sys.NrStat, sys.NrFstat:
		var a vfs.Attr
		var err error
		if c.nr == sys.NrStat {
			a, err = pr.Stat(c.path)
		} else {
			a, err = pr.Fstat(c.fd)
		}
		if err != nil {
			return 0, nil, err
		}
		rec := vfs.EncodeAttr(a)
		return 0, rec[:], nil
	case sys.NrUnlink:
		return 0, nil, pr.Unlink(c.path)
	case sys.NrMkdir:
		return 0, nil, pr.Mkdir(c.path)
	}
	return 0, nil, fmt.Errorf("no trap method for %v", c.nr)
}

// compoundCall makes the call as a one-operation compound.
func compoundCall(e *Engine, pr *sys.Proc, c parityCase) (int64, []byte, error) {
	b := lib.New()
	bufOff := b.Alloc(max(c.n, vfs.StatSize))
	path := func() lang.Reg { return b.Const(int64(b.String(c.path))) }
	var args []lang.Reg
	switch c.nr {
	case sys.NrOpen:
		args = []lang.Reg{path(), b.Const(int64(c.flags))}
	case sys.NrCreat, sys.NrUnlink, sys.NrMkdir:
		args = []lang.Reg{path()}
	case sys.NrClose:
		args = []lang.Reg{b.Const(int64(c.fd))}
	case sys.NrRead, sys.NrWrite:
		args = []lang.Reg{b.Const(int64(c.fd)), b.Const(int64(bufOff)), b.Const(int64(c.n))}
	case sys.NrLseek:
		args = []lang.Reg{b.Const(int64(c.fd)), b.Const(c.off), b.Const(int64(c.whence))}
	case sys.NrStat:
		args = []lang.Reg{path(), b.Const(int64(bufOff))}
	case sys.NrFstat:
		args = []lang.Reg{b.Const(int64(c.fd)), b.Const(int64(bufOff))}
	}
	raw, err := b.Build(b.Sys(uint16(c.nr), args...))
	if err != nil {
		return 0, nil, err
	}
	v, err := e.ExecRing(pr, raw)
	if err != nil {
		return 0, nil, err
	}
	switch c.nr {
	case sys.NrRead:
		out, err := ringData(e, pr.P, len(raw)+bufOff, int(v))
		return v, out, err
	case sys.NrStat, sys.NrFstat:
		out, err := ringData(e, pr.P, len(raw)+bufOff, vfs.StatSize)
		return v, out, err
	}
	return v, nil, nil
}

// ringCall makes the call as a one-SQE ring submission: the path at
// data offset 0, the payload or stat window at ringBuf.
func ringCall(pr *sys.Proc, c parityCase) (int64, []byte, error) {
	const ringBuf = 1024
	h, err := pr.RingSetup(8, 4096)
	if err != nil {
		return 0, nil, err
	}
	defer h.Close()
	sqe := kring.SQE{Op: uint16(c.nr)}
	switch c.nr {
	case sys.NrOpen, sys.NrCreat, sys.NrUnlink, sys.NrMkdir, sys.NrStat:
		v, err := h.View(0, len(c.path))
		if err != nil {
			return 0, nil, err
		}
		if err := v.CopyOut(0, []byte(c.path)); err != nil {
			return 0, nil, err
		}
		sqe.DataLen = uint32(len(c.path))
		sqe.Args[0] = int64(c.flags)
		if c.nr == sys.NrStat {
			sqe.Args[0] = ringBuf
		}
	case sys.NrClose:
		sqe.Args[0] = int64(c.fd)
	case sys.NrRead, sys.NrWrite:
		sqe.Args[0] = int64(c.fd)
		sqe.DataOff, sqe.DataLen = ringBuf, uint32(c.n)
	case sys.NrLseek:
		sqe.Args = [4]int64{int64(c.fd), c.off, int64(c.whence)}
	case sys.NrFstat:
		sqe.Args[0], sqe.Args[1] = int64(c.fd), ringBuf
	}
	if err := h.Push(&sqe); err != nil {
		return 0, nil, err
	}
	if _, err := h.Enter(); err != nil {
		return 0, nil, err
	}
	cqe, herr, err := h.Pop()
	if err != nil {
		return 0, nil, err
	}
	if herr != nil {
		return 0, nil, herr
	}
	n := 0
	switch c.nr {
	case sys.NrRead:
		n = int(cqe.Res)
	case sys.NrStat, sys.NrFstat:
		n = vfs.StatSize
	default:
		return cqe.Res, nil, nil
	}
	v, err := h.View(ringBuf, n)
	if err != nil {
		return 0, nil, err
	}
	out := make([]byte, n)
	return cqe.Res, out, v.CopyIn(0, out)
}

// runParity runs c through one submission path on a fresh system.
func runParity(t *testing.T, c parityCase, path string) parityResult {
	t.Helper()
	m, k := env()
	e := New(k, ModeDataSeg)
	var r parityResult
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if err := parityFixture(pr); err != nil {
			return err
		}
		switch path {
		case "trap":
			r.res, r.out, r.err = trapCall(pr, c)
		case "cosy":
			r.res, r.out, r.err = compoundCall(e, pr, c)
		case "ring":
			r.res, r.out, r.err = ringCall(pr, c)
		}
		var err error
		r.listing, err = parityListing(pr)
		return err
	})
	if rerr != nil {
		t.Fatalf("%s: %v", path, rerr)
	}
	return r
}

// TestSyscallParityAcrossPaths runs each of the ten calls a compound
// may make, once succeeding and once failing, three ways: the trap
// method, a one-operation compound, and a one-SQE ring submission.
// All three must return the same result and output bytes, an error of
// the trap call's class, and leave the same directory listing.
func TestSyscallParityAcrossPaths(t *testing.T) {
	cases := []parityCase{
		{name: "open", nr: sys.NrOpen, path: parityFile},
		{name: "open-missing", nr: sys.NrOpen, path: "/p/missing", want: vfs.ErrNotExist},
		{name: "creat", nr: sys.NrCreat, path: "/p/g"},
		{name: "creat-no-dir", nr: sys.NrCreat, path: "/q/g", want: vfs.ErrNotExist},
		{name: "close", nr: sys.NrClose, fd: fixtureFD},
		{name: "close-bad-fd", nr: sys.NrClose, fd: badFD, want: sys.ErrBadFD},
		{name: "read", nr: sys.NrRead, fd: fixtureFD, n: 64},
		{name: "read-bad-fd", nr: sys.NrRead, fd: badFD, n: 64, want: sys.ErrBadFD},
		{name: "write", nr: sys.NrWrite, fd: fixtureFD, n: 150},
		{name: "write-bad-fd", nr: sys.NrWrite, fd: badFD, n: 150, want: sys.ErrBadFD},
		{name: "lseek", nr: sys.NrLseek, fd: fixtureFD, off: 10, whence: sys.SeekEnd},
		{name: "lseek-bad-whence", nr: sys.NrLseek, fd: fixtureFD, whence: 7, want: vfs.ErrInval},
		{name: "stat", nr: sys.NrStat, path: parityFile},
		{name: "stat-missing", nr: sys.NrStat, path: "/p/missing", want: vfs.ErrNotExist},
		{name: "fstat", nr: sys.NrFstat, fd: fixtureFD},
		{name: "fstat-bad-fd", nr: sys.NrFstat, fd: badFD, want: sys.ErrBadFD},
		{name: "unlink", nr: sys.NrUnlink, path: parityFile},
		{name: "unlink-missing", nr: sys.NrUnlink, path: "/p/missing", want: vfs.ErrNotExist},
		{name: "mkdir", nr: sys.NrMkdir, path: "/p/d"},
		{name: "mkdir-exists", nr: sys.NrMkdir, path: parityDir, want: vfs.ErrExist},
	}
	covered := map[sys.Nr]int{}
	for _, c := range cases {
		covered[c.nr]++
		t.Run(c.name, func(t *testing.T) {
			want := runParity(t, c, "trap")
			if !errors.Is(want.err, c.want) {
				t.Fatalf("trap: err = %v, want %v", want.err, c.want)
			}
			for _, path := range []string{"cosy", "ring"} {
				got := runParity(t, c, path)
				if !errors.Is(got.err, c.want) {
					t.Errorf("%s: err = %v, want %v", path, got.err, c.want)
				}
				if c.want == nil && (got.res != want.res || !bytes.Equal(got.out, want.out)) {
					t.Errorf("%s: result %d %q, trap %d %q", path, got.res, got.out, want.res, want.out)
				}
				if !reflect.DeepEqual(got.listing, want.listing) {
					t.Errorf("%s: listing %q, trap %q", path, got.listing, want.listing)
				}
			}
		})
	}
	for nr, arity := range compoundArity {
		if arity > 0 && covered[sys.Nr(nr)] != 2 {
			t.Errorf("%v: %d cases, want a success and a failure", sys.Nr(nr), covered[sys.Nr(nr)])
		}
	}
}

// TestCompoundAllocsFlatInReads pins the per-syscall host cost of a
// compound at zero heap objects: a compound making 64 reads must
// allocate no more than the same compound making 16.
func TestCompoundAllocsFlatInReads(t *testing.T) {
	build := func(reads int64) []byte {
		b := lib.New()
		path := b.Const(int64(b.String(parityFile)))
		buf := b.Const(int64(b.Alloc(64)))
		fd := b.Sys(uint16(sys.NrOpen), path, b.Const(sys.ORdonly))
		total := b.Const(0)
		b.CountedLoop(reads, func(lang.Reg) {
			b.Sys(uint16(sys.NrLseek), fd, b.Const(0), b.Const(sys.SeekSet))
			n := b.Sys(uint16(sys.NrRead), fd, buf, b.Const(64))
			b.BinInto(total, "+", total, n)
		})
		b.Sys(uint16(sys.NrClose), fd)
		raw, err := b.Build(total)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	few, many := build(16), build(64)
	m, k := env()
	e := New(k, ModeDataSeg)
	var allocs [2]float64
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if err := parityFixture(pr); err != nil {
			return err
		}
		var execErr error
		for i, raw := range [][]byte{few, many} {
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := e.ExecRing(pr, raw); err != nil {
					execErr = err
				}
			})
		}
		return execErr
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if allocs[1] > allocs[0] {
		t.Errorf("a compound allocates %.0f objects with 16 reads and %.0f with 64", allocs[0], allocs[1])
	}
}
