package kext

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cosy/cc"
	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/minic"
	"repro/internal/seg"
	"repro/internal/sim"
	"repro/internal/sys"
	"repro/internal/vfs"
	"repro/internal/vfs/memfs"
)

func env() (*kernel.Machine, *sys.Kernel) {
	m := kernel.New(kernel.Config{})
	fs := memfs.New("root", vfs.NewIOModel(disk.New(disk.IDE7200()), 1<<16))
	ns := vfs.NewNamespace(fs)
	return m, sys.NewKernel(m, ns)
}

func run(t *testing.T, m *kernel.Machine, fn func(p *kernel.Process) error) error {
	t.Helper()
	m.Spawn("test", fn)
	return m.Run()
}

func TestComputeOnlyCompound(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	a := b.Const(40)
	c := b.Const(2)
	sum := b.Bin("+", a, c)
	buf, err := b.Build(sum)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		got, err = e.ExecRing(pr, buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	if e.Stats.Compounds != 1 || e.Stats.Ops == 0 {
		t.Fatalf("stats = %+v", e.Stats)
	}
}

func TestCompoundLoop(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	sum := b.Const(0)
	b.CountedLoop(100, func(i lang.Reg) {
		b.BinInto(sum, "+", sum, i)
	})
	buf, err := b.Build(sum)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		var e2 error
		got, e2 = e.ExecRing(pr, buf)
		return e2
	})
	if err != nil || got != 4950 {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestCompoundSyscallsOpenWriteReadClose(t *testing.T) {
	// The canonical Cosy flow: create a file, write shared-buffer
	// data, reopen, read it back — one boundary crossing.
	m, k := env()
	e := New(k, ModeDataSeg)

	b := lib.New()
	pathOff := b.String("/data.bin")
	payloadOff := b.Alloc(16)
	// Fill payload via stores.
	for i := 0; i < 8; i++ {
		addr := b.Const(int64(payloadOff + i))
		val := b.Const(int64('A' + i))
		b.Store(1, addr, val)
	}
	path := b.Const(int64(pathOff))
	fd := b.Sys(uint16(sys.NrCreat), path)
	n := b.Sys(uint16(sys.NrWrite), fd, b.Const(int64(payloadOff)), b.Const(8))
	b.Sys(uint16(sys.NrClose), fd)
	fd2 := b.Sys(uint16(sys.NrOpen), path, b.Const(0))
	readOffV := b.Alloc(16)
	nr := b.Sys(uint16(sys.NrRead), fd2, b.Const(int64(readOffV)), b.Const(8))
	b.Sys(uint16(sys.NrClose), fd2)
	total := b.Bin("+", n, nr)
	buf, err := b.Build(total)
	if err != nil {
		t.Fatal(err)
	}

	var got int64
	var data []byte
	var calls int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		// Warm the engine's submission ring so the measurement below
		// sees the steady state, not the one-time ring_setup crossing.
		if _, err := e.ring(pr, len(buf)); err != nil {
			return err
		}
		before := k.TotalCalls()
		got, err = e.ExecRing(pr, buf)
		if err != nil {
			return err
		}
		calls = k.TotalCalls() - before
		data, err = ringData(e, p, len(buf)+readOffV, 8)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("total bytes = %d", got)
	}
	if calls != 1 {
		t.Fatalf("boundary crossings = %d, want 1", calls)
	}
	if string(data) != "ABCDEFGH" {
		t.Fatalf("data segment = %q", data)
	}
	if e.Stats.Syscalls != 6 {
		t.Fatalf("in-kernel syscalls = %d", e.Stats.Syscalls)
	}
}

func TestCompiledRegionEndToEnd(t *testing.T) {
	// Cosy-GCC path: marked C code to compound to execution.
	src := `
int bulk(void) {
	COSY_START;
	char buf[64];
	int fd = sys_creat("/from-c.txt");
	buf[0] = 'h'; buf[1] = 'i'; buf[2] = '!';
	int n = sys_write(fd, buf, 3);
	sys_close(fd);
	cosy_return(n);
	COSY_END;
	return 0;
}`
	comp, err := cc.CompileMarked(src, "bulk")
	if err != nil {
		t.Fatal(err)
	}
	m, k := env()
	e := New(k, ModeDataSeg)
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		got, err = e.ExecRing(pr, lang.Encode(comp))
		if err != nil {
			return err
		}
		// Verify through the normal syscall interface.
		ub, _ := pr.Mmap(16)
		n, err := pr.OpenReadClose("/from-c.txt", ub)
		if err != nil {
			return err
		}
		data, _ := pr.Peek(ub, n)
		if string(data) != "hi!" {
			t.Errorf("file contents %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("compound returned %d", got)
	}
}

func TestCompiledRegionWithLoopAndDependency(t *testing.T) {
	// A read loop where the fd (output of sys_open) feeds sys_read:
	// the dependency-resolution behaviour of Cosy-GCC.
	src := `
int scan(void) {
	COSY_START;
	char buf[512];
	int fd = sys_open("/big.dat", 0);
	int total = 0;
	int n = 1;
	while (n > 0) {
		n = sys_read(fd, buf, 512);
		total += n;
	}
	sys_close(fd);
	cosy_return(total);
	COSY_END;
	return 0;
}`
	comp, err := cc.CompileMarked(src, "scan")
	if err != nil {
		t.Fatal(err)
	}
	m, k := env()
	e := New(k, ModeDataSeg)
	var got int64
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		// Create a 2000-byte file first.
		fd, err := pr.Creat("/big.dat")
		if err != nil {
			return err
		}
		ub, _ := pr.Mmap(2000)
		if _, err := pr.Write(fd, ub); err != nil {
			return err
		}
		_ = pr.Close(fd)

		got, err = e.ExecRing(pr, lang.Encode(comp))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2000 {
		t.Fatalf("total = %d", got)
	}
}

// TestWatchdogKillsInfiniteLoop checks that a compound that never
// ends is killed by the watchdog of the ring drain it runs inside.
func TestWatchdogKillsInfiniteLoop(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	m.Costs.MaxKernelCycles = m.Costs.TimeSlice * 3 // keep the test fast
	b := lib.New()
	top := b.Here()
	b.JmpTo(top) // while(1);
	buf, err := b.Build(b.Const(0))
	if err != nil {
		t.Fatal(err)
	}
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		_, err := e.ExecRing(pr, buf)
		return err
	})
	if !errors.Is(err, kernel.ErrKilled) || !strings.Contains(err.Error(), "exceeded maximum kernel time") {
		t.Fatalf("err = %v, want process killed by the watchdog", err)
	}
}

func TestSegmentationBlocksOutOfBoundsAccess(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	addr := b.Const(100000) // far outside the data segment
	val := b.Const(1)
	b.Store(8, addr, val)
	buf, err := b.Build(val)
	if err != nil {
		t.Fatal(err)
	}
	err = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		_, err := e.ExecRing(pr, buf)
		var pf *seg.ProtFault
		if !errors.As(err, &pf) {
			t.Errorf("err = %v, want protection fault", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.Faults == 0 {
		t.Fatal("no fault counted")
	}
}

func TestSegmentationBlocksOOBRead(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	addr := b.Const(-8)
	v := b.Load(8, addr)
	buf, err := b.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if _, err := e.ExecRing(pr, buf); err == nil {
			t.Error("negative-offset load succeeded")
		}
		return nil
	})
}

func TestSyscallBufferBoundsChecked(t *testing.T) {
	// A buffer running past the end of a 64-byte data segment must
	// fault, not scribble: read and write payloads, stat and fstat
	// records, and a path string before its start. Each fault is
	// counted. A count larger than the whole segment is rejected
	// outright.
	for _, tc := range []struct {
		name   string
		nr     sys.Nr
		off, n int64 // buffer offset; count for read and write
		fault  bool
	}{
		{"read-oversized", sys.NrRead, 60, 4096, false},
		{"read", sys.NrRead, 48, 32, true},
		{"write", sys.NrWrite, 48, 32, true},
		{"stat", sys.NrStat, 16, 0, true},
		{"fstat", sys.NrFstat, 16, 0, true},
		{"unlink-path", sys.NrUnlink, -1, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, k := env()
			e := New(k, ModeDataSeg)
			b := lib.New()
			path := b.Const(int64(b.String("/x")))
			b.Alloc(56) // the rest of a 64-byte data segment
			fd := b.Sys(uint16(sys.NrCreat), path)
			var r lang.Reg
			switch tc.nr {
			case sys.NrStat:
				r = b.Sys(uint16(tc.nr), path, b.Const(tc.off))
			case sys.NrFstat:
				r = b.Sys(uint16(tc.nr), fd, b.Const(tc.off))
			case sys.NrUnlink:
				r = b.Sys(uint16(tc.nr), b.Const(tc.off))
			default:
				r = b.Sys(uint16(tc.nr), fd, b.Const(tc.off), b.Const(tc.n))
			}
			buf, err := b.Build(r)
			if err != nil {
				t.Fatal(err)
			}
			rerr := run(t, m, func(p *kernel.Process) error {
				pr := sys.NewProc(k, p)
				_, err := e.ExecRing(pr, buf)
				var pf *seg.ProtFault
				if tc.fault && !errors.As(err, &pf) {
					t.Errorf("err = %v, want protection fault", err)
				}
				if !tc.fault && !errors.Is(err, ErrBadCompound) {
					t.Errorf("err = %v, want ErrBadCompound", err)
				}
				return nil
			})
			if rerr != nil {
				t.Fatal(rerr)
			}
			if tc.fault && e.Stats.Faults != 1 {
				t.Errorf("faults = %d, want 1", e.Stats.Faults)
			}
		})
	}
}

func TestIsolatedModeChargesSegEntries(t *testing.T) {
	mkBuf := func() []byte {
		b := lib.New()
		pathOff := b.String("/seg.txt")
		path := b.Const(int64(pathOff))
		fd := b.Sys(uint16(sys.NrCreat), path)
		x := b.Const(5) // compute between syscalls: new segment entry
		y := b.Bin("+", x, x)
		b.Sys(uint16(sys.NrClose), fd)
		z := b.Bin("*", y, y)
		buf, err := b.Build(z)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	exec := func(mode Mode) (*Engine, int64) {
		m, k := env()
		e := New(k, mode)
		var sysCycles int64
		_ = run(t, m, func(p *kernel.Process) error {
			pr := sys.NewProc(k, p)
			_, s0, _ := p.Times()
			if _, err := e.ExecRing(pr, mkBuf()); err != nil {
				return err
			}
			_, s1, _ := p.Times()
			sysCycles = int64(s1 - s0)
			return nil
		})
		return e, sysCycles
	}
	eIso, isoCost := exec(ModeIsolated)
	eData, dataCost := exec(ModeDataSeg)
	if eIso.Stats.SegEntries < 2 {
		t.Fatalf("segment entries = %d", eIso.Stats.SegEntries)
	}
	if eData.Stats.SegEntries != 0 {
		t.Fatalf("data-seg mode charged %d entries", eData.Stats.SegEntries)
	}
	if isoCost <= dataCost {
		t.Fatalf("isolated mode not costlier: %d vs %d", isoCost, dataCost)
	}
}

// TestHandcraftedCompoundRejected hand-pushes bytes that are no
// compound, so the kernel's decoder, not ExecRing's header read,
// rejects them.
func TestHandcraftedCompoundRejected(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		raw := []byte{1, 2, 3, 4, 5}
		if _, err := pushCosy(e, pr, raw, 64, int64(len(raw))); !errors.Is(err, ErrBadCompound) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

// TestForbiddenSyscallRejected covers calls outside Cosy's set of
// ten: a nested compound, and registry calls with bodies that
// compounds may not make. Each must be rejected without running.
func TestForbiddenSyscallRejected(t *testing.T) {
	for _, nr := range []sys.Nr{sys.NrCosy, sys.NrRmdir, sys.NrRename, sys.NrGetpid} {
		t.Run(nr.String(), func(t *testing.T) {
			b := lib.New()
			dir := b.Const(int64(b.String("/keep")))
			var args []lang.Reg
			switch nr {
			case sys.NrRmdir:
				args = []lang.Reg{dir}
			case sys.NrRename:
				args = []lang.Reg{dir, b.Const(int64(b.String("/moved")))}
			}
			buf, err := b.Build(b.Sys(uint16(nr), args...))
			if err != nil {
				t.Fatal(err)
			}
			m, k := env()
			e := New(k, ModeDataSeg)
			rerr := run(t, m, func(p *kernel.Process) error {
				pr := sys.NewProc(k, p)
				if err := pr.Mkdir("/keep"); err != nil {
					return err
				}
				if _, err := e.ExecRing(pr, buf); !errors.Is(err, ErrBadCompound) {
					t.Errorf("err = %v, want ErrBadCompound", err)
				}
				if _, err := pr.Stat("/keep"); err != nil {
					t.Errorf("rejected %v changed the tree: %v", nr, err)
				}
				return nil
			})
			if rerr != nil {
				t.Fatal(rerr)
			}
		})
	}
}

// TestInvalidOperandsRejected hand-encodes compounds whose operations
// read or write no register, or name an unknown unary operator.
// Validation must reject each before the interpreter runs it.
func TestInvalidOperandsRejected(t *testing.T) {
	end := lang.Instr{Op: lang.OpEnd, Dst: lang.NoReg, A: lang.NoReg, B: lang.NoReg}
	for _, tc := range []struct {
		name string
		in   lang.Instr
	}{
		{"mov", lang.Instr{Op: lang.OpMov, Dst: 0, A: lang.NoReg, B: lang.NoReg}},
		{"const", lang.Instr{Op: lang.OpConst, Dst: lang.NoReg, A: lang.NoReg, B: lang.NoReg, Imm: 7}},
		{"bin", lang.Instr{Op: lang.OpBin, Dst: 0, A: 0, B: lang.NoReg, Sub: uint8(minic.BinAdd)}},
		{"load", lang.Instr{Op: lang.OpLoad, Dst: lang.NoReg, A: 0, B: lang.NoReg, Sub: 8}},
		{"store", lang.Instr{Op: lang.OpStore, A: lang.NoReg, B: 0, Sub: 8}},
		{"sys-dst", lang.Instr{Op: lang.OpSys, Dst: lang.NoReg, A: lang.NoReg, B: lang.NoReg,
			Imm: int64(sys.NrClose), Args: []lang.Reg{0}}},
		{"sys-arg", lang.Instr{Op: lang.OpSys, Dst: 0, A: lang.NoReg, B: lang.NoReg,
			Imm: int64(sys.NrClose), Args: []lang.Reg{lang.NoReg}}},
		{"brz", lang.Instr{Op: lang.OpBrz, Dst: lang.NoReg, A: lang.NoReg, B: lang.NoReg, Imm: 1}},
		{"unop", lang.Instr{Op: lang.OpUn, Dst: 0, A: 0, B: lang.NoReg, Sub: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := lang.Encode(&lang.Compound{NRegs: 1, ShmSize: 64, Code: []lang.Instr{tc.in, end}})
			m, k := env()
			e := New(k, ModeDataSeg)
			rerr := run(t, m, func(p *kernel.Process) error {
				pr := sys.NewProc(k, p)
				if _, err := e.ExecRing(pr, buf); !errors.Is(err, ErrBadCompound) {
					t.Errorf("err = %v, want ErrBadCompound", err)
				}
				return nil
			})
			if rerr != nil {
				t.Fatal(rerr)
			}
		})
	}
}

func TestStatThroughCompound(t *testing.T) {
	m, k := env()
	e := New(k, ModeDataSeg)
	b := lib.New()
	pathOff := b.String("/stat-me")
	statOff := b.Alloc(vfs.StatSize)
	fd := b.Sys(uint16(sys.NrCreat), b.Const(int64(pathOff)))
	b.Sys(uint16(sys.NrClose), fd)
	r := b.Sys(uint16(sys.NrStat), b.Const(int64(pathOff)), b.Const(int64(statOff)))
	buf, err := b.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	_ = run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if _, err := e.ExecRing(pr, buf); err != nil {
			return err
		}
		raw, err := ringData(e, p, len(buf)+statOff, vfs.StatSize)
		if err != nil {
			return err
		}
		a := vfs.DecodeAttr(raw)
		if a.Type != vfs.TypeReg || a.Nlink != 1 {
			t.Errorf("decoded attr = %+v", a)
		}
		return nil
	})
}

func TestCosyFasterThanSyscallLoop(t *testing.T) {
	// The headline claim at micro scale: a read loop as a compound
	// beats the same loop through the syscall interface.
	const fileSize = 64 << 10
	const chunk = 4096

	setup := func(pr *sys.Proc) error {
		fd, err := pr.Creat("/bench.dat")
		if err != nil {
			return err
		}
		ub, err := pr.Mmap(fileSize)
		if err != nil {
			return err
		}
		if _, err := pr.Write(fd, ub); err != nil {
			return err
		}
		return pr.Close(fd)
	}

	// Plain syscall loop.
	m1, k1 := env()
	var plain int64
	m1.Spawn("plain", func(p *kernel.Process) error {
		pr := sys.NewProc(k1, p)
		if err := setup(pr); err != nil {
			return err
		}
		u0, s0, _ := p.Times()
		fd, _ := pr.Open("/bench.dat", 0)
		ub, _ := pr.Mmap(chunk)
		for {
			n, err := pr.Read(fd, ub)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
		}
		_ = pr.Close(fd)
		u1, s1, _ := p.Times()
		plain = int64(u1 - u0 + s1 - s0)
		return nil
	})
	if err := m1.Run(); err != nil {
		t.Fatal(err)
	}

	// Cosy compound.
	src := fmt.Sprintf(`
int scan(void) {
	COSY_START;
	char buf[%d];
	int fd = sys_open("/bench.dat", 0);
	int total = 0;
	int n = 1;
	while (n > 0) {
		n = sys_read(fd, buf, %d);
		total += n;
	}
	sys_close(fd);
	cosy_return(total);
	COSY_END;
	return 0;
}`, chunk, chunk)
	comp, err := cc.CompileMarked(src, "scan")
	if err != nil {
		t.Fatal(err)
	}
	m2, k2 := env()
	e := New(k2, ModeDataSeg)
	var cosyTime int64
	var total int64
	m2.Spawn("cosy", func(p *kernel.Process) error {
		pr := sys.NewProc(k2, p)
		if err := setup(pr); err != nil {
			return err
		}
		u0, s0, _ := p.Times()
		total, err = e.ExecRing(pr, lang.Encode(comp))
		u1, s1, _ := p.Times()
		cosyTime = int64(u1 - u0 + s1 - s0)
		return err
	})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != fileSize {
		t.Fatalf("compound read %d bytes", total)
	}
	if cosyTime >= plain {
		t.Fatalf("cosy (%d cycles) not faster than syscall loop (%d cycles)", cosyTime, plain)
	}
	speedup := float64(plain-cosyTime) / float64(plain)
	t.Logf("cosy speedup: %.1f%%", speedup*100)
	if speedup < 0.2 {
		t.Fatalf("speedup only %.1f%%, paper reports 40-90%% for micro-benchmarks", speedup*100)
	}
}

// TestCompiledRegionShortCircuits: Cosy-GCC evaluates the right
// operand of && and || only when the left one leaves the result open,
// as C and minic do. Neither guarded creat runs, and 0 && 1/0 is 0,
// not a division fault.
func TestCompiledRegionShortCircuits(t *testing.T) {
	src := `
int f(void) {
	COSY_START;
	if (0 && sys_creat("/and-leak") >= 0) { }
	if (1 || sys_creat("/or-leak") >= 0) { }
	cosy_return(0 && 1/0);
	COSY_END;
	return 0;
}`
	comp, err := cc.CompileMarked(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if got, err := e.ExecRing(pr, lang.Encode(comp)); got != 0 || err != nil {
			t.Errorf("cosy_return(0 && 1/0) = %d, %v; want 0", got, err)
		}
		for _, path := range []string{"/and-leak", "/or-leak"} {
			if _, err := pr.Stat(path); err == nil {
				t.Errorf("%s exists: the skipped operand ran", path)
			}
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestCosyReturnEndsRegion: cosy_return ends the compound where it
// runs, as return ends a C function. The branch taken decides the
// result, and a system call after cosy_return never runs.
func TestCosyReturnEndsRegion(t *testing.T) {
	for _, c := range []struct {
		body string
		want int64
	}{
		{`if (1) { cosy_return(7); } else { cosy_return(9); }`, 7},
		{`if (0) { cosy_return(7); } else { cosy_return(9); }`, 9},
		{`cosy_return(5); sys_creat("/after");`, 5},
	} {
		comp, err := cc.CompileMarked("int f(void) { COSY_START; "+c.body+" COSY_END; return 0; }", "f")
		if err != nil {
			t.Fatal(err)
		}
		m, k := env()
		e := New(k, ModeDataSeg)
		rerr := run(t, m, func(p *kernel.Process) error {
			pr := sys.NewProc(k, p)
			if got, err := e.ExecRing(pr, lang.Encode(comp)); got != c.want || err != nil {
				t.Errorf("%s = %d, %v; want %d", c.body, got, err, c.want)
			}
			if _, err := pr.Stat("/after"); err == nil {
				t.Errorf("%s: /after exists: the compound ran past cosy_return", c.body)
			}
			return nil
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
}

// TestCompiledRegionMatchesMinic checks Cosy-GCC against minic: each
// case runs as a marked region compiled to a compound and as a plain
// minic function under the interpreter. Both must give the same
// value, or both must fail. The operator cases bind a and b and
// evaluate one expression; the statement cases exercise loops,
// break and continue, compound assignment through an array element
// and through a pointer, and copies Cosy-GCC must not fold away: one
// after an instruction that writes no register, one whose source is
// read again and one a branch jumps to.
func TestCompiledRegionMatchesMinic(t *testing.T) {
	operands := []string{"0", "1", "-1", "63", "64", "9223372036854775807", "-9223372036854775807 - 1"}
	type tc struct{ body, result string }
	var cases []tc
	for op := minic.BinOp(0); op < minic.NumBinOps; op++ {
		for _, a := range operands {
			for _, b := range operands {
				cases = append(cases, tc{fmt.Sprintf("int a = %s; int b = %s;", a, b), fmt.Sprintf("a %v b", op)})
			}
		}
	}
	for _, a := range operands {
		for _, expr := range []string{"-a", "!a", "~a", "a && 1/0", "a || 1/0"} {
			cases = append(cases, tc{fmt.Sprintf("int a = %s;", a), expr})
		}
	}
	cases = append(cases,
		tc{`int s = 0;
	for (int i = 0; i < 100; i++) {
		if (i % 3 == 0) { continue; }
		if (i > 50) { break; }
		s += i;
	}
	int n = 0;
	while (1) { n++; if (n == 7) { break; } }`, "s * 1000 + n"},
		tc{`int v[4]; v[0] = 5; v[1] = 7; v[2] = 3;
	v[1] += v[0]; v[2] *= v[1]; v[0] *= 8; v[0] -= 1;
	char c[2]; c[0] = 200; c[0] += 100; c[1] = 9; c[1] ^= 12;`,
			"v[0] * 1000000 + v[1] * 10000 + v[2] * 100 + c[0] + c[1]"},
		tc{`int x = 3; int *p = &x; *p += 4; *p *= 4; *p ^= 5;
	int w[3]; w[0] = 1; w[1] = 2; w[2] = 3;
	int *q = w; q += 2; *q *= 5; q--; *q |= 8;`,
			"x * 10000 + w[0] * 100 + w[1] * 10 + w[2]"},
		tc{`int x = 5; int y = x;`, "y"},
		tc{`int a = 5; int x = a; int y = x;`, "a + x * 10 + y * 100"},
		tc{`int c = 0; int a = 5; int x = 3; if (c) { x = a; } int y = x;`, "y + a"},
		// No local and no string literal sits at address 0.
		tc{`char buf[8]; char *p = buf;`, "p != 0"},
		tc{`char *s = "ab";`, "s != 0"},
	)

	var plain strings.Builder
	for i, c := range cases {
		fmt.Fprintf(&plain, "int f%d(void) { %s return %s; }\n", i, c.body, c.result)
	}
	unit, err := minic.CompileSource(plain.String())
	if err != nil {
		t.Fatal(err)
	}
	costs := sim.DefaultCosts()
	ip, err := minic.NewInterp(mem.NewAddressSpace("minic", mem.NewPhys(1<<20), &costs), unit)
	if err != nil {
		t.Fatal(err)
	}

	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		for i, c := range cases {
			comp, err := cc.CompileMarked(fmt.Sprintf(`
int f(void) {
	COSY_START;
	%s
	cosy_return(%s);
	COSY_END;
	return 0;
}`, c.body, c.result), "f")
			if err != nil {
				return fmt.Errorf("%s %s: %w", c.body, c.result, err)
			}
			got, cerr := e.ExecRing(pr, lang.Encode(comp))
			want, merr := ip.Call(fmt.Sprintf("f%d", i))
			if (cerr != nil) != (merr != nil) || got != want {
				t.Errorf("%s %s: compound %d, %v; minic %d, %v",
					c.body, c.result, got, cerr, want, merr)
			}
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}
