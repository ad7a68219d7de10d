package kext

import (
	"fmt"
	"testing"

	"repro/internal/cosy/lang"
	"repro/internal/cosy/lib"
	"repro/internal/kernel"
	"repro/internal/kring"
	"repro/internal/sys"
)

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
			shm, err := e.NewShm(256)
			if err != nil {
				return err
			}
			for i := 0; i < rounds; i++ {
				var got int64
				if explicit {
					h, err := e.ring(pr, len(buf))
					if err != nil {
						return err
					}
					v, err := h.View(0, len(buf))
					if err != nil {
						return err
					}
					if err := v.CopyOut(0, buf); err != nil {
						return err
					}
					if err := h.Push(&kring.SQE{
						Op:      uint16(sys.NrCosy),
						Args:    [4]int64{int64(shm.Selector())},
						DataLen: uint32(len(buf)),
					}); err != nil {
						return err
					}
					if _, err := h.Enter(); err != nil {
						return err
					}
					cqe, herr, err := h.Pop()
					if err != nil {
						return err
					}
					if herr != nil {
						return herr
					}
					got = cqe.Res
				} else {
					var err error
					got, err = e.ExecRing(pr, buf, shm)
					if err != nil {
						return err
					}
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
		shm, err := e.NewShm(64)
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
			shm, err := e.NewShm(64)
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
