package kflight

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/kperf"
)

// fuzzInput hands out a fuzz input's bytes, then zeros once they run
// out.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// int64 reads a value: one byte picks an int64 extreme, eight raw
// bytes, or a small value around 0.
func (in *fuzzInput) int64() int64 {
	switch b := in.byte(); b {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		var raw [8]byte
		for i := range raw {
			raw[i] = in.byte()
		}
		return int64(binary.LittleEndian.Uint64(raw[:]))
	default:
		return int64(b) - 128
	}
}

// gap reads an index gap: one byte, or 255 and four more bytes.
func (in *fuzzInput) gap() int {
	g := int(in.byte())
	if g == 255 {
		for range 4 {
			g = g<<8 | int(in.byte())
		}
	}
	return g
}

// fuzzEpoch is an epoch's rows as written, to compare its read-back
// with.
type fuzzEpoch struct {
	gauges, attr [][2]int64
	hists        []histAt
}

type histAt struct {
	i int
	d HistDelta
}

// FuzzEpochLog closes epochs with arbitrary rows into a ring of 4
// slots over one row log, and after every close reads each retained
// epoch back: every row must return with its index and values exact.
// Each epoch takes a flags byte (bit 0 adds a block's worth of gauge
// rows, enough to outgrow a block), a row count per kind, and per row
// an index gap and its values, which may be int64 extremes.
func FuzzEpochLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                                    // an empty epoch
	f.Add([]byte{0, 1, 1, 1, 0, 0, 3, 0, 1, 5, 5, 5, 7, 0, 200}) // one row of each kind, extremes
	f.Add([]byte{1, 2, 0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 3, 2, 1, 255, 0, 0, 1, 0, 130, 4, 131, 9, 99, 2, 1, 1, 1, 1, 1, 1, 1, 1, 40, 41, 42, 77, 2, 3,
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		ring := kperf.NewWindow[storedEpoch](4)
		var l rowLog
		var model []fuzzEpoch
		for epochs := 0; len(in) > 0 && epochs < 64; epochs++ {
			flags := in.byte()
			var counts [nRowKinds]int
			for k := range counts {
				counts[k] = int(in.byte() % 32)
			}
			if flags&1 != 0 {
				counts[gaugeRow] += blockBytes / 2
			}

			e := ring.Next()
			l.open(ring.Overwritten())
			var want fuzzEpoch
			i := -1
			for range counts[gaugeRow] {
				i += in.gap() + 1
				v := in.int64()
				l.gauge(i, v)
				want.gauges = append(want.gauges, [2]int64{int64(i), v})
			}
			i = -1
			for range counts[histRow] {
				i += in.gap() + 1
				m := kperf.HistMove{I: i, Count: in.int64(), Sum: in.int64()}
				for q := range m.Quantiles {
					m.Quantiles[q] = in.byte() % kperf.HistBuckets
				}
				l.hist(m)
				want.hists = append(want.hists, histAt{i, HistDelta{
					Count: m.Count, Sum: m.Sum,
					P50: 1 << m.Quantiles[0], P90: 1 << m.Quantiles[1], P99: 1 << m.Quantiles[2],
				}})
			}
			i = -1
			for range counts[attrRow] {
				i += in.gap() + 1
				v := in.int64()
				l.attr(i, v)
				want.attr = append(want.attr, [2]int64{int64(i), v})
			}
			e.rows, e.n = l.close(ring.Written() - 1)
			model = append(model, want)

			for j := range ring.Len() {
				seq := ring.Overwritten() + int64(j)
				var got fuzzEpoch
				s := ring.At(j)
				s.decode(
					func(i int, v int64) { got.gauges = append(got.gauges, [2]int64{int64(i), v}) },
					func(i int, d HistDelta) { got.hists = append(got.hists, histAt{i, d}) },
					func(i int, v int64) { got.attr = append(got.attr, [2]int64{int64(i), v}) })
				want := model[seq]
				if !slices.Equal(got.gauges, want.gauges) || !slices.Equal(got.hists, want.hists) ||
					!slices.Equal(got.attr, want.attr) {
					t.Fatalf("epoch %d reads %+v, want %+v", seq, got, want)
				}
			}
		}
	})
}
