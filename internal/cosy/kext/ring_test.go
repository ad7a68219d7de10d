package kext

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/kernel"
	"repro/internal/kring"
	"repro/internal/seg"
	"repro/internal/sys"
)

// pushCosy hand-pushes one NrCosy entry that names selector sel and
// carries the compound raw, and returns its completion.
func pushCosy(e *Engine, pr *sys.Proc, raw []byte, sel int64) (int64, error) {
	h, err := e.ring(pr, len(raw))
	if err != nil {
		return 0, err
	}
	if len(raw) > 0 {
		v, err := h.View(0, len(raw))
		if err != nil {
			return 0, err
		}
		if err := v.CopyOut(0, raw); err != nil {
			return 0, err
		}
	}
	if err := h.Push(&kring.SQE{
		Op:      uint16(sys.NrCosy),
		Args:    [4]int64{sel},
		DataLen: uint32(len(raw)),
	}); err != nil {
		return 0, err
	}
	if _, err := h.Enter(); err != nil {
		return 0, err
	}
	cqe, herr, err := h.Pop()
	if err != nil {
		return 0, err
	}
	if herr != nil {
		return 0, herr
	}
	return cqe.Res, nil
}

// TestExecMatchesExplicitRingSubmission is the one-crossing gate:
// ExecRing and a hand-rolled NrCosy ring submission must burn
// bit-identical simulated cycles and produce identical results,
// because one compound costs exactly one ring submission.
func TestExecMatchesExplicitRingSubmission(t *testing.T) {
	b := lib.New()
	pathOff := b.String("/diff.bin")
	payloadOff := b.Alloc(16)
	for i := 0; i < 8; i++ {
		b.Store(1, b.Const(int64(payloadOff+i)), b.Const(int64('a'+i)))
	}
	fd := b.Sys(uint16(sys.NrCreat), b.Const(int64(pathOff)))
	n := b.Sys(uint16(sys.NrWrite), fd, b.Const(int64(payloadOff)), b.Const(8))
	b.Sys(uint16(sys.NrClose), fd)
	buf, err := b.Build(n)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 5
	runOnce := func(explicit bool) ([]int64, int64) {
		m, k := env()
		e := New(k, ModeDataSeg)
		var results []int64
		rerr := run(t, m, func(p *kernel.Process) error {
			pr := sys.NewProc(k, p)
			shm, err := e.NewShm(pr, 256)
			if err != nil {
				return err
			}
			for i := 0; i < rounds; i++ {
				var got int64
				if explicit {
					got, err = pushCosy(e, pr, buf, int64(shm.Selector()))
				} else {
					got, err = e.ExecRing(pr, buf, shm)
				}
				if err != nil {
					return err
				}
				results = append(results, got)
			}
			return nil
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
		return results, int64(m.Clock.Now())
	}

	viaExec, execCycles := runOnce(false)
	viaRing, ringCycles := runOnce(true)
	if fmt.Sprint(viaExec) != fmt.Sprint(viaRing) {
		t.Errorf("results differ: ExecRing %v, explicit ring %v", viaExec, viaRing)
	}
	for _, r := range viaExec {
		if r != 8 {
			t.Errorf("compound wrote %d bytes", r)
		}
	}
	if execCycles != ringCycles {
		t.Errorf("cycles differ: ExecRing %d, explicit ring %d (one compound is one submission)",
			execCycles, ringCycles)
	}
}

// TestExecRingReusesRing checks the per-process ring is cached: only
// the first compound pays the ring_setup crossing, and a compound
// larger than the data area grows the ring transparently.
func TestExecRingReusesRing(t *testing.T) {
	b := lib.New()
	v := b.Bin("+", b.Const(20), b.Const(22))
	buf, err := b.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, err := e.NewShm(pr, 64)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if got, err := e.ExecRing(pr, buf, shm); err != nil || got != 42 {
				return fmt.Errorf("round %d: %d, %v", i, got, err)
			}
		}
		if n := k.Calls[sys.NrRingSetup]; n != 1 {
			return fmt.Errorf("ring_setup called %d times for 3 compounds", n)
		}
		if n := k.Calls[sys.NrRingEnter]; n != 3 {
			return fmt.Errorf("ring_enter called %d times for 3 compounds", n)
		}
		// A compound bigger than the current data area forces one
		// regrow (close + setup), then executes normally (the decoder
		// ignores padding past the encoded program).
		big := make([]byte, ringDataMin+1)
		copy(big, buf)
		if got, err := e.ExecRing(pr, big, shm); err != nil || got != 42 {
			return fmt.Errorf("oversized compound: %d, %v", got, err)
		}
		if n := k.Calls[sys.NrRingSetup]; n != 2 {
			return fmt.Errorf("ring_setup called %d times after regrow", n)
		}
		if got, err := e.ExecRing(pr, buf, shm); err != nil || got != 42 {
			return fmt.Errorf("post-regrow compound: %d, %v", got, err)
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if m.Clock.Now() == 0 {
		t.Error("clock did not advance")
	}
}

// TestCompoundsInterleaveAcrossProcesses runs two processes' compounds
// on one engine. Their loops differ in length and run long enough to
// be preempted mid-compound, so the other process's compound is staged,
// decoded and run before each resumes: every compound must still
// return what it returns alone.
func TestCompoundsInterleaveAcrossProcesses(t *testing.T) {
	build := func(adds int) []byte {
		b := lib.New()
		total := b.Const(0)
		step := b.Const(int64(5 * adds))
		b.CountedLoop(20_000, func(lang.Reg) {
			for i := 0; i < adds; i++ {
				b.BinInto(total, "+", total, step)
			}
		})
		raw, err := b.Build(total)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cases := []struct {
		name string
		adds int
		want int64
	}{{"one-add", 1, 100_000}, {"three-adds", 3, 900_000}}

	m, k := env()
	e := New(k, ModeDataSeg)
	got := make([][]int64, len(cases))
	for i, c := range cases {
		raw := build(c.adds)
		m.Spawn(c.name, func(p *kernel.Process) error {
			pr := sys.NewProc(k, p)
			shm, err := e.NewShm(pr, 64)
			if err != nil {
				return err
			}
			for j := 0; j < 5; j++ {
				v, err := e.ExecRing(pr, raw, shm)
				if err != nil {
					return err
				}
				got[i] = append(got[i], v)
			}
			return nil
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.CtxSwitches == 0 {
		t.Fatal("no context switches: the compounds never interleaved")
	}
	for i, c := range cases {
		if len(got[i]) != 5 {
			t.Fatalf("%s ran %d compounds, want 5", c.name, len(got[i]))
		}
		for j, v := range got[i] {
			if v != c.want {
				t.Errorf("%s compound %d returned %d, want %d", c.name, j, v, c.want)
			}
		}
	}
}

// loadCompound is a compound that returns the 8 bytes at offset 0 of
// the buffer its submission names.
func loadCompound(t *testing.T) []byte {
	t.Helper()
	b := lib.New()
	b.Alloc(8)
	raw, err := b.Build(b.Load(8, b.Const(0)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// fillShm maps a buffer of size bytes for pr's process and fills it
// with fill.
func fillShm(e *Engine, pr *sys.Proc, size int, fill byte) (*Shm, error) {
	shm, err := e.NewShm(pr, size)
	if err != nil {
		return nil, err
	}
	return shm, shm.Write(0, bytes.Repeat([]byte{fill}, size))
}

// TestForeignSelectorReachesNothing: a selector indexes the submitting
// process's own descriptor table. Process A maps two buffers full of a
// sentinel; process B maps one full of a marker, then names each of
// A's selectors in an NrCosy entry whose compound loads 8 bytes at
// offset 0. B must read its own marker (selector 1 is its own buffer
// too) or get ErrBadCompound (it has no selector 2), never A's
// sentinel.
func TestForeignSelectorReachesNothing(t *testing.T) {
	const sentinel, marker = 0x5e, 0x0b
	want := int64(binary.LittleEndian.Uint64(bytes.Repeat([]byte{marker}, 8)))
	raw := loadCompound(t)
	for _, mode := range []Mode{ModeIsolated, ModeDataSeg} {
		t.Run(mode.String(), func(t *testing.T) {
			m, k := env()
			e := New(k, mode)
			var aSels []seg.Selector
			m.Spawn("a", func(p *kernel.Process) error {
				pr := sys.NewProc(k, p)
				for i := 0; i < 2; i++ {
					shm, err := fillShm(e, pr, 64, sentinel)
					if err != nil {
						return err
					}
					aSels = append(aSels, shm.Selector())
				}
				return nil
			})
			m.Spawn("b", func(p *kernel.Process) error {
				pr := sys.NewProc(k, p)
				if _, err := fillShm(e, pr, 64, marker); err != nil {
					return err
				}
				if len(aSels) != 2 {
					return errors.New("process a has not mapped its buffers")
				}
				for _, sel := range aSels {
					v, err := pushCosy(e, pr, raw, int64(sel))
					if !(err == nil && v == want) && !errors.Is(err, ErrBadCompound) {
						t.Errorf("selector %d: read %#x, %v; want b's marker %#x or ErrBadCompound", sel, v, err, want)
					}
				}
				return nil
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSelectorOutOfRangeRejected: an NrCosy selector is range-checked
// before it is narrowed to 16 bits, so the process's own selector plus
// 65,536 does not alias its buffer; the null selector, a negative one
// and one the process never mapped are rejected too.
func TestSelectorOutOfRangeRejected(t *testing.T) {
	raw := loadCompound(t)
	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, err := fillShm(e, pr, 64, 0x0b)
		if err != nil {
			return err
		}
		sel := int64(shm.Selector())
		if _, err := pushCosy(e, pr, raw, sel); err != nil {
			return fmt.Errorf("own selector: %w", err)
		}
		for _, bad := range []int64{sel + 1<<16, sel - 1<<16, 0, -1, sel + 1} {
			if v, err := pushCosy(e, pr, raw, bad); !errors.Is(err, ErrBadCompound) {
				t.Errorf("selector %d: read %#x, %v; want ErrBadCompound", bad, v, err)
			}
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestNewShmOnFullTable fills a process's descriptor table: NewShm
// must then fail with ErrBadCompound without mapping a page, and the
// buffer mapped before still serves compounds.
func TestNewShmOnFullTable(t *testing.T) {
	raw := loadCompound(t)
	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		shm, err := fillShm(e, pr, 64, 0x0b)
		if err != nil {
			return err
		}
		table := e.state(p.PID).table
		for !table.Full() {
			if _, err := table.Alloc(seg.Descriptor{Name: "filler", Limit: 1}); err != nil {
				return err
			}
		}
		mapped := k.M.KAS.Mapped()
		if s, err := e.NewShm(pr, 64); !errors.Is(err, ErrBadCompound) {
			t.Errorf("NewShm on a full table: %v, %v; want ErrBadCompound", s, err)
		}
		if got := k.M.KAS.Mapped(); got != mapped {
			t.Errorf("failed NewShm mapped %d pages", got-mapped)
		}
		if _, err := e.ExecRing(pr, raw, shm); err != nil {
			return fmt.Errorf("compound on the first buffer: %w", err)
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}
