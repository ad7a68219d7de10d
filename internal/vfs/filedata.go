package vfs

import (
	"bytes"

	"repro/internal/disk"
)

// FileData holds a regular file's bytes in pages of disk.BlockSize:
// page i holds bytes [i*BlockSize, (i+1)*BlockSize), the range that
// buffer-cache block i covers, so a growing file gains pages instead
// of being copied. A page no nonzero byte has reached is a hole: a nil
// entry that holds no host page and reads as zeros. Growth, by a write
// past the end or by Truncate, appends holes, and a write takes a page
// from the file system's FreePages only for a chunk that holds a
// nonzero byte, so zeros written into a hole leave it a hole. The
// bytes past Size in the pages a file holds are kept zero: pages come
// cleared from FreePages, and a shrink clears its last kept page past
// the new end. The zero value is an empty file.
type FileData struct {
	pages [][]byte
	size  int64
}

// FreePages is one file system's free list of data pages. Truncate
// and Release put a file's real pages back on it (holes have none to
// give), and a write that puts a nonzero byte into a hole takes one
// from it before allocating, so a file system's page memory stays at
// the high-water mark of the pages holding nonzero bytes instead of
// churning.
type FreePages struct {
	pages [][]byte
}

// zeroPage is what a hole holds: a chunk equal to its prefix leaves
// the hole as it is.
var zeroPage [disk.BlockSize]byte

// get returns a cleared page, reusing a freed one when there is one.
func (fp *FreePages) get() []byte {
	n := len(fp.pages)
	if n == 0 {
		return make([]byte, disk.BlockSize)
	}
	pg := fp.pages[n-1]
	fp.pages = fp.pages[:n-1]
	clear(pg)
	return pg
}

// pagesFor is the number of pages that hold size bytes.
func pagesFor(size int64) int {
	return int((size + disk.BlockSize - 1) / disk.BlockSize)
}

// Size reports the file's length in bytes.
func (f *FileData) Size() int64 { return f.size }

// ReadAt copies the bytes at off (off >= 0) into buf and reports how
// many it copied, fewer than len(buf) only at end of file. Each page
// the read covers is one copy, or one clear for a hole.
func (f *FileData) ReadAt(buf []byte, off int64) int {
	if off >= f.size {
		return 0
	}
	if left := f.size - off; int64(len(buf)) > left {
		buf = buf[:left]
	}
	n := len(buf)
	pg, in := off/disk.BlockSize, off%disk.BlockSize
	for ; len(buf) > 0; pg, in = pg+1, 0 {
		chunk := buf[:min(len(buf), int(disk.BlockSize-in))]
		buf = buf[len(chunk):]
		if p := f.pages[pg]; p != nil {
			copy(chunk, p[in:])
		} else {
			clear(chunk)
		}
	}
	return n
}

// WriteAt copies data into the file at off (off >= 0). A write that
// ends past Size grows the file to off+len(data), even when data is
// empty; the gap between the old end and off reads as zero. A chunk
// bound for a hole takes a page from free only if it holds a nonzero
// byte.
func (f *FileData) WriteAt(free *FreePages, data []byte, off int64) {
	if end := off + int64(len(data)); end > f.size {
		f.grow(end)
	}
	pg, in := off/disk.BlockSize, off%disk.BlockSize
	for ; len(data) > 0; pg, in = pg+1, 0 {
		chunk := data[:min(len(data), int(disk.BlockSize-in))]
		data = data[len(chunk):]
		p := f.pages[pg]
		if p == nil {
			if bytes.Equal(chunk, zeroPage[:len(chunk)]) {
				continue
			}
			p = free.get()
			f.pages[pg] = p
		}
		copy(p[in:], chunk)
	}
}

// Truncate sets the file's length to size (size >= 0). Shrinking
// returns the real pages past the new end to free and clears the rest
// of the last page if it is real, so growing again reads zeros there.
func (f *FileData) Truncate(free *FreePages, size int64) {
	if size >= f.size {
		f.grow(size)
		return
	}
	keep := pagesFor(size)
	for i := keep; i < len(f.pages); i++ {
		if p := f.pages[i]; p != nil {
			free.pages = append(free.pages, p)
			f.pages[i] = nil
		}
	}
	f.pages = f.pages[:keep]
	if tail := size % disk.BlockSize; tail != 0 && f.pages[keep-1] != nil {
		clear(f.pages[keep-1][tail:])
	}
	f.size = size
}

// Release returns every real page to free and leaves the file empty.
func (f *FileData) Release(free *FreePages) { f.Truncate(free, 0) }

// grow appends holes until the file holds size bytes.
func (f *FileData) grow(size int64) {
	for len(f.pages) < pagesFor(size) {
		f.pages = append(f.pages, nil)
	}
	f.size = size
}
