package vfs

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/disk"
)

// flatFile is the grow-and-copy file body that memfs and btfs kept
// before FileData: one slice reallocated to its exact new size on
// every growth. It is the oracle FileData is checked against.
type flatFile struct{ data []byte }

func (m *flatFile) writeAt(data []byte, off int64) {
	end := off + int64(len(data))
	if end > int64(len(m.data)) {
		grown := make([]byte, end)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], data)
}

func (m *flatFile) truncate(size int64) {
	switch {
	case size < int64(len(m.data)):
		m.data = m.data[:size]
	case size > int64(len(m.data)):
		grown := make([]byte, size)
		copy(grown, m.data)
		m.data = grown
	}
}

func (m *flatFile) readAt(buf []byte, off int64) int {
	if off >= int64(len(m.data)) {
		return 0
	}
	return copy(buf, m.data[off:])
}

// Program bounds: offsets and lengths span a few pages so operations
// cross page boundaries, leave holes and shrink across pages.
const (
	progFiles  = 3
	progStep   = 6
	progMaxOff = 3*disk.BlockSize + 1
	progMaxLen = 2*disk.BlockSize + 1
)

// runFileDataProgram decodes prog into operations on progFiles files
// that share one FreePages, applies each to FileData and to the flat
// model, and fails on the first difference in a read, a size or a
// file's contents. Each operation takes progStep bytes: kind, file,
// then little-endian 16-bit offset and length.
func runFileDataProgram(t testing.TB, prog []byte) {
	t.Helper()
	var free FreePages
	var files [progFiles]FileData
	var models [progFiles]flatFile
	got := make([]byte, progMaxLen)
	want := make([]byte, progMaxLen)
	for step := 0; len(prog) >= progStep; step++ {
		kind, fi := prog[0]%4, int(prog[1])%progFiles
		off := int64(binary.LittleEndian.Uint16(prog[2:]) % progMaxOff)
		n := int(binary.LittleEndian.Uint16(prog[4:]) % progMaxLen)
		prog = prog[progStep:]
		f, m := &files[fi], &models[fi]
		switch kind {
		case 0:
			// Never-zero bytes, so a stale byte that should read as
			// zero shows.
			data := make([]byte, n)
			for i := range data {
				data[i] = byte((step+i)%255 + 1)
			}
			f.WriteAt(&free, data, off)
			m.writeAt(data, off)
		case 1:
			f.Truncate(&free, off)
			m.truncate(off)
		case 2:
			gn, wn := f.ReadAt(got[:n], off), m.readAt(want[:n], off)
			if gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
				t.Fatalf("step %d: ReadAt(%d bytes at %d) of file %d = %d bytes, want %d (contents equal: %v)",
					step, n, off, fi, gn, wn, bytes.Equal(got[:gn], want[:wn]))
			}
		case 3:
			f.Release(&free)
			m.data = nil
		}
		if f.Size() != int64(len(m.data)) {
			t.Fatalf("step %d: file %d size %d, want %d", step, fi, f.Size(), len(m.data))
		}
		whole := make([]byte, f.Size()+1)
		if gn := f.ReadAt(whole, 0); gn != len(m.data) || !bytes.Equal(whole[:gn], m.data) {
			t.Fatalf("step %d: file %d contents differ from the flat model", step, fi)
		}
	}
}

// randomProgram returns a seeded program of ops operations.
func randomProgram(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]byte, ops*progStep)
	rng.Read(prog)
	return prog
}

func TestFileDataMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		runFileDataProgram(t, randomProgram(seed, 120))
	}
}

// op encodes one program operation.
func op(kind, file byte, off, n uint16) []byte {
	b := []byte{kind, file, 0, 0, 0, 0}
	binary.LittleEndian.PutUint16(b[2:], off)
	binary.LittleEndian.PutUint16(b[4:], n)
	return b
}

// shrinkRegrowProgram fills file 0 with two pages, shrinks it into
// its first page, lets file 1 take the freed page back, then regrows
// both files: the bytes past each shrink must read as zero.
func shrinkRegrowProgram() []byte {
	var prog []byte
	for _, o := range [][]byte{
		op(0, 0, 0, 2*disk.BlockSize), // two full pages
		op(1, 0, 100, 0),              // shrink: page 1 freed, page 0 tail cleared
		op(0, 1, disk.BlockSize, 10),  // hole in page 0; page 1 is the freed one
		op(1, 0, 2*disk.BlockSize, 0), // regrow file 0
		op(0, 0, 3*disk.BlockSize, 1), // write past EOF: a hole page
		op(2, 1, 0, 2*disk.BlockSize), // read across the hole and the reused page
		op(3, 0, 0, 0),                // release
		op(0, 0, 50, 50),              // reuse released pages
		op(2, 0, 0, 200),
		op(0, 2, disk.BlockSize, 0), // an empty write past EOF still grows the file
	} {
		prog = append(prog, o...)
	}
	return prog
}

func TestFileDataReusesClearedPages(t *testing.T) {
	runFileDataProgram(t, shrinkRegrowProgram())

	var free FreePages
	var a, b FileData
	a.WriteAt(&free, bytes.Repeat([]byte{0xff}, 2*disk.BlockSize), 0)
	a.Truncate(&free, 100)
	if len(free.pages) != 1 {
		t.Fatalf("shrink freed %d pages, want 1", len(free.pages))
	}
	b.WriteAt(&free, []byte{1}, disk.BlockSize-1)
	if len(free.pages) != 0 {
		t.Fatal("growth allocated a page instead of taking the freed one")
	}
	page := make([]byte, disk.BlockSize)
	if b.ReadAt(page, 0) != disk.BlockSize || !bytes.Equal(page[:disk.BlockSize-1], make([]byte, disk.BlockSize-1)) {
		t.Fatal("reused page was not cleared")
	}
	a.Truncate(&free, disk.BlockSize)
	if a.ReadAt(page, 0) != disk.BlockSize || !bytes.Equal(page[100:], make([]byte, disk.BlockSize-100)) {
		t.Fatal("bytes past the shrink did not read as zero after regrowing")
	}
}

func FuzzFileData(f *testing.F) {
	f.Add(shrinkRegrowProgram())
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(randomProgram(seed, 40))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runFileDataProgram(t, prog)
	})
}
