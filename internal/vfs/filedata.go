package vfs

import "repro/internal/disk"

// FileData holds a regular file's bytes in pages of disk.BlockSize:
// page i holds bytes [i*BlockSize, (i+1)*BlockSize), the range that
// buffer-cache block i covers, so a growing file gains pages instead
// of being copied. The bytes past Size in the pages a file holds are
// kept zero, so growing it, by a write past the end or by Truncate,
// exposes zeros: pages come cleared from the file system's FreePages,
// and a shrink clears its last kept page past the new end. The zero
// value is an empty file.
type FileData struct {
	pages [][]byte
	size  int64
}

// FreePages is one file system's free list of data pages. Truncate
// and Release put pages back on it, and growing files take them from
// it before allocating, so a file system's page memory stays at its
// high-water mark instead of churning.
type FreePages struct {
	pages [][]byte
}

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
// many it copied, fewer than len(buf) only at end of file. A read
// within one page is a single copy.
func (f *FileData) ReadAt(buf []byte, off int64) int {
	if off >= f.size {
		return 0
	}
	if left := f.size - off; int64(len(buf)) > left {
		buf = buf[:left]
	}
	pg := off / disk.BlockSize
	n := copy(buf, f.pages[pg][off%disk.BlockSize:])
	for n < len(buf) {
		pg++
		n += copy(buf[n:], f.pages[pg])
	}
	return n
}

// WriteAt copies data into the file at off (off >= 0). A write that
// ends past Size grows the file to off+len(data), even when data is
// empty; the gap between the old end and off reads as zero.
func (f *FileData) WriteAt(free *FreePages, data []byte, off int64) {
	if end := off + int64(len(data)); end > f.size {
		f.grow(free, end)
	}
	if len(data) == 0 {
		return
	}
	pg := off / disk.BlockSize
	n := copy(f.pages[pg][off%disk.BlockSize:], data)
	for n < len(data) {
		pg++
		n += copy(f.pages[pg], data[n:])
	}
}

// Truncate sets the file's length to size (size >= 0). Shrinking
// returns the pages past the new end to free and clears the rest of
// the last page, so growing again reads zeros there.
func (f *FileData) Truncate(free *FreePages, size int64) {
	if size >= f.size {
		f.grow(free, size)
		return
	}
	keep := pagesFor(size)
	for i := keep; i < len(f.pages); i++ {
		free.pages = append(free.pages, f.pages[i])
		f.pages[i] = nil
	}
	f.pages = f.pages[:keep]
	if tail := size % disk.BlockSize; tail != 0 {
		clear(f.pages[keep-1][tail:])
	}
	f.size = size
}

// Release returns every page to free and leaves the file empty.
func (f *FileData) Release(free *FreePages) { f.Truncate(free, 0) }

// grow adds cleared pages until the file holds size bytes.
func (f *FileData) grow(free *FreePages, size int64) {
	for len(f.pages) < pagesFor(size) {
		f.pages = append(f.pages, free.get())
	}
	f.size = size
}
