package kext

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/kernel"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// fuzzData is the data segment of FuzzCompound's hand-pushed entry.
const fuzzData = 4096

// seedCompounds returns well-formed compounds for FuzzCompound to
// mutate: one making all ten calls compounds may make, the DB scans'
// sequential and random probe loops, and E3's open-read-close, stat
// and creat-write-close loops. Each runs over the parity fixture.
func seedCompounds() ([][]byte, error) {
	var out [][]byte
	add := func(b *lib.Builder, result lang.Reg) error {
		raw, err := b.Build(result)
		out = append(out, raw)
		return err
	}

	// All ten calls.
	b := lib.New()
	dir := b.Const(int64(b.String("/p/all")))
	file := b.Const(int64(b.String("/p/all/x")))
	buf := b.Const(int64(b.Alloc(256)))
	st := b.Const(int64(b.Alloc(vfs.StatSize)))
	n := b.Const(256)
	b.Sys(uint16(sys.NrMkdir), dir)
	fd := b.Sys(uint16(sys.NrCreat), file)
	b.Sys(uint16(sys.NrWrite), fd, buf, n)
	b.Sys(uint16(sys.NrLseek), fd, b.Const(0), b.Const(sys.SeekSet))
	got := b.Sys(uint16(sys.NrRead), fd, buf, n)
	b.Sys(uint16(sys.NrFstat), fd, st)
	b.Sys(uint16(sys.NrClose), fd)
	fd2 := b.Sys(uint16(sys.NrOpen), file, b.Const(sys.ORdonly))
	b.Sys(uint16(sys.NrStat), file, st)
	b.Sys(uint16(sys.NrClose), fd2)
	b.Sys(uint16(sys.NrUnlink), file)
	if err := add(b, got); err != nil {
		return nil, err
	}

	// Sequential scan: read until EOF, testing each record header.
	b = lib.New()
	rec := b.Alloc(32)
	fd = b.Sys(uint16(sys.NrOpen), b.Const(int64(b.String(parityFile))), b.Const(0))
	total := b.Const(0)
	top := b.Here()
	got = b.Sys(uint16(sys.NrRead), fd, b.Const(int64(rec)), b.Const(32))
	exit := b.Brz(got)
	b.BinInto(total, "+", total, got)
	hdr := b.Load(8, b.Const(int64(rec)))
	b.Bin("&", hdr, hdr)
	b.JmpTo(top)
	exit.Here()
	b.Sys(uint16(sys.NrClose), fd)
	if err := add(b, total); err != nil {
		return nil, err
	}

	// Random probes from an in-compound LCG: lseek + read per lookup.
	b = lib.New()
	rec = b.Alloc(16)
	fd = b.Sys(uint16(sys.NrOpen), b.Const(int64(b.String(parityFile))), b.Const(0))
	total = b.Const(0)
	x := b.Const(42)
	mul, inc, mod := b.Const(1103515245), b.Const(12345), b.Const(1<<31)
	nrec, rsz := b.Const(6), b.Const(16)
	b.CountedLoop(8, func(lang.Reg) {
		b.BinInto(x, "%", b.Bin("+", b.Bin("*", mul, x), inc), mod)
		off := b.Bin("*", b.Bin("%", x, nrec), rsz)
		b.Sys(uint16(sys.NrLseek), fd, off, b.Const(sys.SeekSet))
		b.BinInto(total, "+", total, b.Sys(uint16(sys.NrRead), fd, b.Const(int64(rec)), rsz))
	})
	b.Sys(uint16(sys.NrClose), fd)
	if err := add(b, total); err != nil {
		return nil, err
	}

	// E3's loops: open-read-close, stat, creat-write-close.
	for _, shape := range []string{"orc", "stat", "cwc"} {
		b = lib.New()
		path := b.Const(int64(b.String(parityFile)))
		buf := b.Const(int64(b.Alloc(vfs.StatSize)))
		size := b.Const(vfs.StatSize)
		total = b.Const(0)
		b.CountedLoop(4, func(lang.Reg) {
			var r lang.Reg
			switch shape {
			case "orc":
				fd := b.Sys(uint16(sys.NrOpen), path, b.Const(0))
				r = b.Sys(uint16(sys.NrRead), fd, buf, size)
				b.Sys(uint16(sys.NrClose), fd)
			case "stat":
				r = b.Sys(uint16(sys.NrStat), path, buf)
			case "cwc":
				fd := b.Sys(uint16(sys.NrCreat), path)
				r = b.Sys(uint16(sys.NrWrite), fd, buf, size)
				b.Sys(uint16(sys.NrClose), fd)
			}
			b.BinInto(total, "+", total, r)
		})
		if err := add(b, total); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestSeedCompoundsRun checks FuzzCompound's seeds are live: each runs
// to completion over the parity fixture.
func TestSeedCompoundsRun(t *testing.T) {
	seeds, err := seedCompounds()
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range seeds {
		m, k := env()
		e := New(k, ModeDataSeg)
		rerr := run(t, m, func(p *kernel.Process) error {
			pr := sys.NewProc(k, p)
			if err := parityFixture(pr); err != nil {
				return err
			}
			if _, err := e.ExecRing(pr, raw); err != nil {
				return fmt.Errorf("seed %d: %w", i, err)
			}
			return nil
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
}

// FuzzCompound submits arbitrary bytes as an encoded compound over the
// parity fixture. Every input must end in a value or an error, or in
// a kill by the ring drain's watchdog for compounds that outrun
// MaxKernelCycles — never a panic — and a process whose compounds
// returned must leave kernel mode and still complete a getpid.
//
// Each input runs on two fresh machines that differ only in the byte
// a second process fills its own ring data area with. The fuzzed
// process submits the bytes twice: through ExecRing, and in a
// hand-pushed NrCosy entry with a 4,096-byte data segment whose split,
// Args[0], is the input's last 8 bytes read as a little-endian int64
// (0 for shorter inputs), so the fuzzer steers where the compound ends
// and its data begins. Results, errors and the fuzzed process's ring
// bytes must match across the machines, and the other process's ring
// must be unchanged: no compound reaches another process's memory.
func FuzzCompound(f *testing.F) {
	seeds, err := seedCompounds()
	if err != nil {
		f.Fatal(err)
	}
	for _, raw := range seeds {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if a, b := fuzzRun(t, raw, 0x11), fuzzRun(t, raw, 0xee); a != b {
			t.Fatalf("outcome depends on another process's ring:\n%s\n%s", a, b)
		}
	})
}

// fuzzRun runs FuzzCompound's two submissions of raw on a fresh
// machine whose other process fills its ring data area with fill, and
// describes what the fuzzed process saw.
func fuzzRun(t *testing.T, raw []byte, fill byte) string {
	m, k := env()
	m.Costs.MaxKernelCycles = 1_000_000
	e := New(k, ModeDataSeg)
	filled := false
	other := m.Spawn("other", func(p *kernel.Process) error {
		h, err := e.ring(sys.NewProc(k, p), 0)
		if err != nil {
			return err
		}
		v, err := h.View(0, h.DataLen())
		if err != nil {
			return err
		}
		filled = true
		return v.CopyOut(0, bytes.Repeat([]byte{fill}, h.DataLen()))
	})
	var split int64
	if len(raw) >= 8 {
		split = int64(binary.LittleEndian.Uint64(raw[len(raw)-8:]))
	}
	var out strings.Builder
	returned := false
	fuzzed := m.Spawn("fuzzed", func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if err := parityFixture(pr); err != nil {
			return err
		}
		if !filled {
			return errors.New("the other process has not filled its ring")
		}
		v, err := e.ExecRing(pr, raw)
		fmt.Fprintf(&out, "ExecRing: %d, %v\n", v, err)
		v, err = pushCosy(e, pr, raw, fuzzData, split)
		fmt.Fprintf(&out, "split at %d: %d, %v\n", split, v, err)
		returned = true
		if p.InKernel() {
			return errors.New("compound returned in kernel mode")
		}
		if pid := pr.Getpid(); pid != p.PID {
			return fmt.Errorf("getpid after the compounds = %d, want %d", pid, p.PID)
		}
		return nil
	})
	rerr := m.Run()
	if rerr != nil && !(errors.Is(rerr, kernel.ErrKilled) && !returned) {
		t.Fatal(rerr)
	}
	fmt.Fprintf(&out, "run: %v\n", rerr)
	theirs, err := ringData(e, other, 0, e.procs[other.PID].ring.DataLen())
	if err != nil || bytes.Count(theirs, []byte{fill}) != len(theirs) {
		t.Fatalf("the other process's ring changed (%v)", err)
	}
	if ps := e.procs[fuzzed.PID]; ps != nil && ps.ring != nil {
		mine, err := ringData(e, fuzzed, 0, ps.ring.DataLen())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "own ring bytes: %x\n", sha256.Sum256(mine))
	}
	return out.String()
}
