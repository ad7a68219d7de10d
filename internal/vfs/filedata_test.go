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

// Operation kinds. A zero write sends all-zero bytes, which must leave
// a hole a hole and overwrite a real page; a spiked zero write puts one
// nonzero byte among them, whose chunk alone must take a page.
const (
	opWrite = iota
	opTruncate
	opRead
	opRelease
	opZeroWrite
	opSpikedZeroWrite
	opKinds
)

// spikeSlots is how many places in a spiked zero write the kind byte
// can name.
const spikeSlots = 255/opKinds + 1

// poison fills what a read is about to overwrite, so a read that
// leaves a byte as it was shows.
const poison = 0xa5

// runFileDataProgram decodes prog into operations on progFiles files
// that share one FreePages, applies each to FileData and to the flat
// model, and fails on the first difference in a read, a size or a
// file's contents. Each operation takes progStep bytes: kind, file,
// then little-endian 16-bit offset and length. The kind byte's value
// past opKinds places a spiked zero write's nonzero byte.
func runFileDataProgram(t testing.TB, prog []byte) {
	t.Helper()
	var free FreePages
	var files [progFiles]FileData
	var models [progFiles]flatFile
	got := make([]byte, progMaxLen)
	want := make([]byte, progMaxLen)
	whole := make([]byte, progMaxOff+progMaxLen+1)
	for step := 0; len(prog) >= progStep; step++ {
		kind, fi := prog[0]%opKinds, int(prog[1])%progFiles
		spike := int(prog[0] / opKinds)
		off := int64(binary.LittleEndian.Uint16(prog[2:]) % progMaxOff)
		n := int(binary.LittleEndian.Uint16(prog[4:]) % progMaxLen)
		prog = prog[progStep:]
		f, m := &files[fi], &models[fi]
		switch kind {
		case opWrite, opZeroWrite, opSpikedZeroWrite:
			data := make([]byte, n)
			switch {
			case kind == opWrite:
				// Never-zero bytes, so a stale byte that should read
				// as zero shows.
				for i := range data {
					data[i] = byte((step+i)%255 + 1)
				}
			case kind == opSpikedZeroWrite && n > 0:
				data[spike*n/spikeSlots] = byte(step%255 + 1)
			}
			f.WriteAt(&free, data, off)
			m.writeAt(data, off)
		case opTruncate:
			f.Truncate(&free, off)
			m.truncate(off)
		case opRead:
			for i := range got[:n] {
				got[i] = poison
			}
			gn, wn := f.ReadAt(got[:n], off), m.readAt(want[:n], off)
			if gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
				t.Fatalf("step %d: ReadAt(%d bytes at %d) of file %d = %d bytes, want %d (contents equal: %v)",
					step, n, off, fi, gn, wn, bytes.Equal(got[:gn], want[:wn]))
			}
		case opRelease:
			f.Release(&free)
			m.data = nil
		}
		if f.Size() != int64(len(m.data)) {
			t.Fatalf("step %d: file %d size %d, want %d", step, fi, f.Size(), len(m.data))
		}
		all := whole[:f.Size()+1]
		for i := range all {
			all[i] = poison
		}
		if gn := f.ReadAt(all, 0); gn != len(m.data) || !bytes.Equal(all[:gn], m.data) {
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
		op(opWrite, 0, 0, 2*disk.BlockSize),    // two full pages
		op(opTruncate, 0, 100, 0),              // shrink: page 1 freed, page 0 tail cleared
		op(opWrite, 1, disk.BlockSize, 10),     // hole in page 0; page 1 is the freed one
		op(opTruncate, 0, 2*disk.BlockSize, 0), // regrow file 0
		op(opWrite, 0, 3*disk.BlockSize, 1),    // write past EOF: a hole page
		op(opRead, 1, 0, 2*disk.BlockSize),     // read across the hole and the reused page
		op(opRelease, 0, 0, 0),
		op(opWrite, 0, 50, 50), // reuse released pages
		op(opRead, 0, 0, 200),
		op(opWrite, 2, disk.BlockSize, 0), // an empty write past EOF still grows the file
	} {
		prog = append(prog, o...)
	}
	return prog
}

// spiked is the kind byte of a spiked zero write whose nonzero byte
// sits at slot of spikeSlots through its data.
func spiked(slot byte) byte { return opSpikedZeroWrite + opKinds*slot }

// zeroWriteProgram writes zeros over real pages, into holes and across
// the boundaries between them, and nonzero bytes among zeros that land
// in a hole, so holes must stay holes, real pages must take the zeros,
// and a spike must take a page for its own chunk alone.
func zeroWriteProgram() []byte {
	const bs = disk.BlockSize
	var prog []byte
	for _, o := range [][]byte{
		op(opWrite, 0, 100, bs),              // pages 0 and 1 real
		op(opZeroWrite, 0, bs-50, 100),       // zeros across two real pages
		op(opZeroWrite, 0, 2*bs-10, 2*bs),    // zeros onto page 1, growing holes 2 and 3
		op(spiked(23), 0, bs+4000, 2*bs),     // zeros on page 1 and hole 2, the spike in hole 3
		op(opRead, 0, bs+4000, 2*bs),         // real, hole, real
		op(opTruncate, 0, 2*bs+10, 0),        // page 3 freed; the kept last page is a hole
		op(opTruncate, 0, 3*bs, 0),           // regrow over the hole
		op(opZeroWrite, 0, 3*bs, 2*bs),       // growth by zeros
		op(spiked(0), 1, 0, 1),               // one nonzero byte: the freed page
		op(opZeroWrite, 1, 0, 2*bs),          // zeros over it and into a hole
		op(spiked(spikeSlots-1), 2, 0, 2*bs), // the spike in the last chunk
		op(opRead, 1, 0, 2*bs),
		op(opRelease, 1, 0, 0),
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

// TestFileDataZeroWritesTakeNoPage pins holes: zeros written across
// three pages of an empty file take no page from FreePages and
// allocate nothing, and a following nonzero byte takes exactly one
// page. The file keeps its page table across Release, as memfs's
// reused inodes do.
func TestFileDataZeroWritesTakeNoPage(t *testing.T) {
	runFileDataProgram(t, zeroWriteProgram())

	const spare = 3
	var free FreePages
	for range spare {
		free.pages = append(free.pages, make([]byte, disk.BlockSize))
	}
	zeros := make([]byte, 2*disk.BlockSize)
	var f FileData
	allocs := testing.AllocsPerRun(100, func() {
		f.Release(&free)
		f.WriteAt(&free, zeros, disk.BlockSize/2) // pages 0, 1 and 2
	})
	if allocs != 0 || len(free.pages) != spare {
		t.Fatalf("zeros across three pages allocated %v objects and took %d pages, want 0 and 0",
			allocs, spare-len(free.pages))
	}
	f.WriteAt(&free, []byte{1}, disk.BlockSize+7)
	if took := spare - len(free.pages); took != 1 {
		t.Fatalf("one nonzero byte took %d pages, want 1", took)
	}
	want := make([]byte, 5*disk.BlockSize/2)
	want[disk.BlockSize+7] = 1
	got := bytes.Repeat([]byte{poison}, len(want)+1)
	if n := f.ReadAt(got, 0); n != len(want) || !bytes.Equal(got[:n], want) {
		t.Fatal("the file does not read as zeros around its one nonzero byte")
	}
}

func FuzzFileData(f *testing.F) {
	f.Add(shrinkRegrowProgram())
	f.Add(zeroWriteProgram())
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(randomProgram(seed, 40))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runFileDataProgram(t, prog)
	})
}
