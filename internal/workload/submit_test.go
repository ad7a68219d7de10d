package workload

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cosy/kext"
	"repro/internal/sim"
	"repro/internal/sys"
)

// A backend boots a Submitter on a fresh system.
type backend func(s *core.System) Submitter

func trapBackend(*core.System) Submitter { return NewTrap() }

func cosyBackend(s *core.System) Submitter { return NewCosy(s.CosyEngine(kext.ModeDataSeg)) }

func ringBackend(batch int) backend {
	return func(*core.System) Submitter { return NewRing(batch) }
}

// fuzzBufLen bounds one read or write of a submitter program. With at
// most six of them per descriptor, a descriptor's group fits the
// smallest ring (8 entries, a data area of 3*fuzzBufLen + 8256 bytes).
const fuzzBufLen = 2048

// submitOutcome is what every backend must agree on after a program:
// payload bytes are unspecified on every path, so file contents are
// not part of it.
type submitOutcome struct {
	BytesRead int64
	Listing   []string // "name size", in directory order
}

// runSubmitProgram runs the random program seed generates through the
// submitter boot returns, then lists the program's directory. Every draw is made on the
// host before the operation is submitted and none depends on a
// result, so each backend receives the same operations.
//
// The program is valid on every path: each open targets an existing
// file; a file with an open descriptor is neither opened again,
// created nor unlinked; a descriptor is closed in the segment that
// opened it. Those rules make a descriptor's operations commute with
// everything else in flight, which is what lets the ring defer them
// to the descriptor's close.
func runSubmitProgram(t *testing.T, seed uint64, boot backend) submitOutcome {
	t.Helper()
	const dir = "/fz"
	s := newSys(t, core.Options{})
	sub := boot(s)
	var out submitOutcome
	s.Spawn("fz", func(pr *sys.Proc) error {
		if err := pr.Mkdir(dir); err != nil {
			return err
		}
		if err := sub.Start(pr, fuzzBufLen); err != nil {
			return err
		}
		rng := sim.NewRand(seed)
		think := func(pr *sys.Proc) error {
			pr.P.ChargeUser(100)
			return nil
		}
		type desc struct {
			fd        FD
			file, ops int
		}
		names := make([]string, 10)
		for i := range names {
			names[i] = fmt.Sprintf("%s/f%d", dir, i)
		}
		exists, busy := make([]bool, len(names)), make([]bool, len(names))
		// Seed most files with content so reads find data.
		for f := 0; f < 6; f++ {
			fd := sub.Do(Op{Nr: sys.NrCreat, Path: names[f]})
			sub.Do(Op{Nr: sys.NrWrite, FD: fd, Len: 1 + rng.Intn(fuzzBufLen)})
			sub.Do(Op{Nr: sys.NrWrite, FD: fd, Len: 1 + rng.Intn(fuzzBufLen)})
			sub.Do(Op{Nr: sys.NrClose, FD: fd})
			exists[f] = true
		}
		for segs := 3 + rng.Intn(6); segs > 0; segs-- {
			txn := rng.Bool(0.6)
			if txn {
				sub.Begin(think)
			}
			var open []desc
			for steps := 2 + rng.Intn(14); steps > 0; steps-- {
				f := rng.Intn(len(names))
				switch k := rng.Intn(10); {
				case k < 3 && len(open) < 3 && !busy[f]:
					var fd FD
					if exists[f] && rng.Bool(0.85) {
						fd = sub.Do(Op{Nr: sys.NrOpen, Path: names[f], Flags: sys.ORdwr})
					} else {
						fd = sub.Do(Op{Nr: sys.NrCreat, Path: names[f]})
					}
					exists[f], busy[f] = true, true
					open = append(open, desc{fd: fd, file: f})
				case k < 9 && len(open) > 0:
					d := &open[rng.Intn(len(open))]
					if d.ops == 6 {
						break
					}
					d.ops++
					switch rng.Intn(5) {
					case 0, 1:
						sub.Do(Op{Nr: sys.NrRead, FD: d.fd, Len: 1 + rng.Intn(fuzzBufLen)})
					case 2:
						sub.Do(Op{Nr: sys.NrWrite, FD: d.fd, Len: 1 + rng.Intn(fuzzBufLen)})
					case 3:
						// Often past EOF: a later write leaves a hole.
						sub.Do(Op{Nr: sys.NrLseek, FD: d.fd, Off: int64(rng.Intn(3 * fuzzBufLen)), Whence: sys.SeekSet})
					case 4:
						sub.Do(Op{Nr: sys.NrLseek, FD: d.fd, Whence: sys.SeekEnd})
					}
				case k == 9 && exists[f] && !busy[f]:
					sub.Do(Op{Nr: sys.NrUnlink, Path: names[f]})
					exists[f] = false
				}
			}
			for len(open) > 0 {
				i := rng.Intn(len(open))
				sub.Do(Op{Nr: sys.NrClose, FD: open[i].fd})
				busy[open[i].file] = false
				open = append(open[:i], open[i+1:]...)
			}
			if txn {
				if err := sub.End(); err != nil {
					return err
				}
			}
		}
		if err := sub.Finish(); err != nil {
			return err
		}
		out.BytesRead = sub.BytesRead()
		ents, err := pr.ReaddirPlus(dir)
		for _, e := range ents {
			out.Listing = append(out.Listing, fmt.Sprintf("%s %d", e.Name, e.Attr.Size))
		}
		return err
	})
	if err := s.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return out
}

// FuzzSubmitters is the cross-backend differential fuzzer: a seeded
// random program of submitter operations — several descriptors and
// reads per transaction, seeks past EOF and to the end, operations
// inside and outside transactions — must read the same total bytes
// and leave the same (name, size) listing on every backend.
func FuzzSubmitters(f *testing.F) {
	for seed := uint64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	others := []struct {
		name string
		boot backend
	}{
		{"cosy", cosyBackend},
		{"ring/1", ringBackend(1)},
		{"ring/64", ringBackend(64)},
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		want := runSubmitProgram(t, seed, trapBackend)
		for _, b := range others {
			if got := runSubmitProgram(t, seed, b.boot); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: %s diverges from trap:\n got %+v\nwant %+v", seed, b.name, got, want)
			}
		}
	})
}
