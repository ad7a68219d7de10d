package kext

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/kernel"
	"repro/internal/kring"
	"repro/internal/mem"
	"repro/internal/seg"
	"repro/internal/sys"
)

// pushCosy hand-pushes one NrCosy entry whose data window holds raw
// and then data bytes of data segment, with the segment starting at
// window offset split, and returns its completion.
func pushCosy(e *Engine, pr *sys.Proc, raw []byte, data int, split int64) (int64, error) {
	h, err := e.ring(pr, len(raw)+data)
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
		Args:    [4]int64{split},
		DataLen: uint32(len(raw) + data),
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

// ringData copies n bytes at offset off of the data area of the ring
// the engine keeps for p's process. After an ExecRing of raw, offset
// len(raw)+x is byte x of that compound's data segment. It reads the
// frames directly and charges no cycles, so it also serves after the
// run.
func ringData(e *Engine, p *kernel.Process, off, n int) ([]byte, error) {
	ps := e.procs[p.PID]
	if ps == nil || ps.ring == nil {
		return nil, fmt.Errorf("process %d has no ring", p.PID)
	}
	v, err := ps.ring.View(off, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, n)
	for va := v.Base(); len(out) < n; va = mem.PageDown(va) + mem.PageSize {
		pte, ok := p.UAS.Lookup(va)
		if !ok {
			return nil, fmt.Errorf("ring page %#x unmapped", uint64(va))
		}
		po := int(va & mem.PageMask)
		page := p.UAS.Phys().Data(pte.Frame)
		out = append(out, page[po:min(mem.PageSize, po+n-len(out))]...)
	}
	return out, nil
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
	data, err := lang.ShmSize(buf)
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
			for i := 0; i < rounds; i++ {
				var got int64
				var err error
				if explicit {
					got, err = pushCosy(e, pr, buf, data, int64(len(buf)))
				} else {
					got, err = e.ExecRing(pr, buf)
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
		for i := 0; i < 3; i++ {
			if got, err := e.ExecRing(pr, buf); err != nil || got != 42 {
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
		if got, err := e.ExecRing(pr, big); err != nil || got != 42 {
			return fmt.Errorf("oversized compound: %d, %v", got, err)
		}
		if n := k.Calls[sys.NrRingSetup]; n != 2 {
			return fmt.Errorf("ring_setup called %d times after regrow", n)
		}
		if got, err := e.ExecRing(pr, buf); err != nil || got != 42 {
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
			for j := 0; j < 5; j++ {
				v, err := e.ExecRing(pr, raw)
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

// loadCompound is a compound with an 8-byte data segment that returns
// the word at offset 0 of it.
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

// TestCompoundReachesOnlyItsOwnWindow: a compound's data segment is
// the tail of its own ring entry. Process A fills its whole ring data
// area with a sentinel. Process B then runs one compound per 8-byte
// word from two rings' worth of bytes below to two rings' worth past a
// 64-byte data segment, each loading that word. Loads inside the
// segment never return A's sentinel, and every other load faults.
func TestCompoundReachesOnlyItsOwnWindow(t *testing.T) {
	const sentinel, segSize = 0x5e, 64
	sentinelWord := int64(binary.LittleEndian.Uint64(bytes.Repeat([]byte{sentinel}, 8)))
	span := int64(2 * kring.BytesFor(ringEntries, ringDataMin))
	for _, mode := range []Mode{ModeIsolated, ModeDataSeg} {
		t.Run(mode.String(), func(t *testing.T) {
			m, k := env()
			e := New(k, mode)
			filled := false
			m.Spawn("a", func(p *kernel.Process) error {
				h, err := e.ring(sys.NewProc(k, p), 0)
				if err != nil {
					return err
				}
				v, err := h.View(0, h.DataLen())
				if err != nil {
					return err
				}
				filled = true
				return v.CopyOut(0, bytes.Repeat([]byte{sentinel}, h.DataLen()))
			})
			var outside int64
			m.Spawn("b", func(p *kernel.Process) error {
				pr := sys.NewProc(k, p)
				if !filled {
					return errors.New("process a has not filled its ring")
				}
				for off := -span; off < segSize+span; off += 8 {
					b := lib.New()
					b.Alloc(segSize)
					raw, err := b.Build(b.Load(8, b.Const(off)))
					if err != nil {
						return err
					}
					v, err := e.ExecRing(pr, raw)
					var pf *seg.ProtFault
					switch inside := off >= 0 && off+8 <= segSize; {
					case inside && (err != nil || v == sentinelWord):
						t.Errorf("load at %d: %#x, %v", off, v, err)
					case !inside:
						outside++
						if !errors.As(err, &pf) {
							t.Errorf("load at %d: %#x, %v; want a protection fault", off, v, err)
						}
					}
				}
				return nil
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if e.Stats.Faults != outside {
				t.Errorf("faults = %d, want %d", e.Stats.Faults, outside)
			}
		})
	}
}

// TestCosyEntrySplitRejected: Args[0] of an NrCosy entry, the offset
// where its data segment starts, is range-checked before it is
// converted, so 2^32 past the compound's end does not alias it, and a
// split that cuts the compound short leaves the decoder a truncated
// compound. Each fails with ErrBadCompound; a split at the compound's
// end runs it.
func TestCosyEntrySplitRejected(t *testing.T) {
	const data = 64
	raw := loadCompound(t)
	n := int64(len(raw))
	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if _, err := pushCosy(e, pr, raw, data, n); err != nil {
			return fmt.Errorf("split at the compound's end: %w", err)
		}
		for _, split := range []int64{-1, n + data + 1, 1<<32 + n, 1 << 62, n - 1, 0} {
			if v, err := pushCosy(e, pr, raw, data, split); !errors.Is(err, ErrBadCompound) {
				t.Errorf("split %d: %#x, %v; want ErrBadCompound", split, v, err)
			}
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestLongLivedProcessMapsNoPagePerCompound runs 70,000 compounds,
// more than 2^16, in one process. Each stores its index in its data
// segment and returns the word loaded back, and no compound after the
// first maps a kernel page or takes a frame.
func TestLongLivedProcessMapsNoPagePerCompound(t *testing.T) {
	const compounds = 70_000
	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		var mapped, frames int
		for i := int64(0); i < compounds; i++ {
			b := lib.New()
			off := b.Const(int64(b.Alloc(8)))
			b.Store(8, off, b.Const(i))
			raw, err := b.Build(b.Load(8, off))
			if err != nil {
				return err
			}
			if v, err := e.ExecRing(pr, raw); err != nil || v != i {
				return fmt.Errorf("compound %d returned %d, %v", i, v, err)
			}
			if i == 0 {
				mapped, frames = k.M.KAS.Mapped(), k.M.Phys.InUse()
			} else if k.M.KAS.Mapped() > mapped || k.M.Phys.InUse() > frames {
				return fmt.Errorf("compound %d: %d kernel pages and %d frames, %d and %d after the first",
					i, k.M.KAS.Mapped(), k.M.Phys.InUse(), mapped, frames)
			}
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestOversizedDataSegmentRejected: a header asking for more data
// than a ring can carry fails with ErrBadCompound before ExecRing
// touches the ring, so the process's working ring is neither closed
// nor regrown and still serves the next compound.
func TestOversizedDataSegmentRejected(t *testing.T) {
	raw := loadCompound(t)
	end := lang.Instr{Op: lang.OpEnd, Dst: lang.NoReg, A: lang.NoReg, B: lang.NoReg}
	m, k := env()
	e := New(k, ModeDataSeg)
	rerr := run(t, m, func(p *kernel.Process) error {
		pr := sys.NewProc(k, p)
		if _, err := e.ExecRing(pr, raw); err != nil {
			return err
		}
		for _, size := range []int{sys.MaxRingData, math.MaxUint32} {
			huge := lang.Encode(&lang.Compound{NRegs: 1, ShmSize: size, Code: []lang.Instr{end}})
			if v, err := e.ExecRing(pr, huge); !errors.Is(err, ErrBadCompound) {
				t.Errorf("ShmSize %d: %d, %v; want ErrBadCompound", size, v, err)
			}
		}
		if setup, closed := k.Calls[sys.NrRingSetup], k.Calls[sys.NrRingClose]; setup != 1 || closed != 0 {
			t.Errorf("ring_setup called %d times and ring_close %d; want 1 and 0", setup, closed)
		}
		if _, err := e.ExecRing(pr, raw); err != nil {
			return fmt.Errorf("compound after the rejections: %w", err)
		}
		return nil
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
}
