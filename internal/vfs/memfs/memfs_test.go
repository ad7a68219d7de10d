package memfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/vfs"
)

func newFS() *FS {
	return New("memfs", vfs.NewIOModel(disk.New(disk.IDE7200()), 4096))
}

func run(t *testing.T, fn func(p *kernel.Process) error) *kernel.Machine {
	t.Helper()
	m := kernel.New(kernel.Config{})
	m.Spawn("test", fn)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCreateWriteRead(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		id, err := fs.Create(p, fs.Root(), "f")
		if err != nil {
			return err
		}
		msg := []byte("the quick brown fox")
		if n, err := fs.Write(p, id, 0, msg); err != nil || n != len(msg) {
			t.Errorf("write = %d,%v", n, err)
		}
		buf := make([]byte, 100)
		n, err := fs.Read(p, id, 0, buf)
		if err != nil || !bytes.Equal(buf[:n], msg) {
			t.Errorf("read = %q,%v", buf[:n], err)
		}
		return nil
	})
}

func TestLookupErrors(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		if _, err := fs.Lookup(p, fs.Root(), "ghost"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		id, _ := fs.Create(p, fs.Root(), "f")
		if _, err := fs.Lookup(p, id, "x"); !errors.Is(err, vfs.ErrNotDir) {
			t.Errorf("lookup in file = %v", err)
		}
		if _, err := fs.Lookup(p, 9999, "x"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("lookup in missing dir = %v", err)
		}
		return nil
	})
}

func TestNestedDirectories(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		a, err := fs.Mkdir(p, fs.Root(), "a")
		if err != nil {
			return err
		}
		b, err := fs.Mkdir(p, a, "b")
		if err != nil {
			return err
		}
		f, err := fs.Create(p, b, "deep")
		if err != nil {
			return err
		}
		got, err := fs.Lookup(p, b, "deep")
		if err != nil || got != f {
			t.Errorf("deep lookup = %d,%v", got, err)
		}
		return nil
	})
}

func TestUnlinkFreesNode(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		id, _ := fs.Create(p, fs.Root(), "f")
		if _, err := fs.Write(p, id, 0, make([]byte, 10000)); err != nil {
			return err
		}
		before := fs.NodeCount()
		if err := fs.Unlink(p, fs.Root(), "f"); err != nil {
			return err
		}
		if fs.NodeCount() != before-1 {
			t.Errorf("node count %d -> %d", before, fs.NodeCount())
		}
		if _, err := fs.Getattr(p, id); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("getattr after unlink = %v", err)
		}
		return nil
	})
}

func TestReaddirDeterministic(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		for _, n := range []string{"zeta", "alpha", "mid"} {
			if _, err := fs.Create(p, fs.Root(), n); err != nil {
				return err
			}
		}
		ents, err := fs.Readdir(p, fs.Root())
		if err != nil {
			return err
		}
		if len(ents) != 3 || ents[0].Name != "alpha" || ents[2].Name != "zeta" {
			t.Errorf("ents = %v", ents)
		}
		return nil
	})
}

func TestColdReadBlocksWarmDoesNot(t *testing.T) {
	fs := newFS()
	var coldWait, warmWait int64
	run(t, func(p *kernel.Process) error {
		id, _ := fs.Create(p, fs.Root(), "f")
		if _, err := fs.Write(p, id, 0, make([]byte, 64<<10)); err != nil {
			return err
		}
		// Evict by dropping the cache: emulate cold cache with a new
		// IOModel... instead, use a second file read twice.
		_, _, w0 := p.Times()
		buf := make([]byte, 64<<10)
		// First read: blocks written are still cached (write-back), so
		// force a cold read via a fresh FS sharing no cache.
		_ = buf
		_ = w0
		return nil
	})
	// Direct approach: cold read on a fresh fs vs warm re-read.
	fs2 := newFS()
	run(t, func(p *kernel.Process) error {
		id, _ := fs2.Create(p, fs2.Root(), "f")
		if _, err := fs2.Write(p, id, 0, make([]byte, 64<<10)); err != nil {
			return err
		}
		fs2.IO().Sync(p)
		// Drop cache to simulate reboot.
		for b := int64(0); b < 20; b++ {
			fs2.IO().Drop(vfs.BlockKey{Node: id, Block: b})
		}
		buf := make([]byte, 64<<10)
		_, _, w1 := p.Times()
		if _, err := fs2.Read(p, id, 0, buf); err != nil {
			return err
		}
		_, _, w2 := p.Times()
		coldWait = int64(w2 - w1)
		if _, err := fs2.Read(p, id, 0, buf); err != nil {
			return err
		}
		_, _, w3 := p.Times()
		warmWait = int64(w3 - w2)
		return nil
	})
	if coldWait == 0 {
		t.Fatal("cold read did not hit the disk")
	}
	if warmWait != 0 {
		t.Fatalf("warm read waited %d cycles", warmWait)
	}
}

func TestRenameAcrossDirs(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		a, _ := fs.Mkdir(p, fs.Root(), "a")
		b, _ := fs.Mkdir(p, fs.Root(), "b")
		id, _ := fs.Create(p, a, "f")
		if err := fs.Rename(p, a, "f", b, "g"); err != nil {
			return err
		}
		got, err := fs.Lookup(p, b, "g")
		if err != nil || got != id {
			t.Errorf("lookup moved = %d,%v", got, err)
		}
		if _, err := fs.Lookup(p, a, "f"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("source still present")
		}
		return nil
	})
}

func TestWriteAtOffsetGrows(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		id, _ := fs.Create(p, fs.Root(), "f")
		if _, err := fs.Write(p, id, 5, []byte("xy")); err != nil {
			return err
		}
		a, _ := fs.Getattr(p, id)
		if a.Size != 7 {
			t.Errorf("size = %d", a.Size)
		}
		if _, err := fs.Write(p, id, -1, []byte("x")); !errors.Is(err, vfs.ErrInval) {
			t.Errorf("negative offset = %v", err)
		}
		return nil
	})
}

func TestManyFilesStress(t *testing.T) {
	fs := newFS()
	run(t, func(p *kernel.Process) error {
		for i := 0; i < 1000; i++ {
			id, err := fs.Create(p, fs.Root(), fmt.Sprintf("f%04d", i))
			if err != nil {
				return err
			}
			if _, err := fs.Write(p, id, 0, []byte{byte(i)}); err != nil {
				return err
			}
		}
		ents, err := fs.Readdir(p, fs.Root())
		if err != nil {
			return err
		}
		if len(ents) != 1000 {
			t.Errorf("readdir = %d", len(ents))
		}
		return nil
	})
}

func TestDataPathAllocFree(t *testing.T) {
	fs := newFS()
	data := make([]byte, 700)
	run(t, func(p *kernel.Process) error {
		root := fs.Root()
		id, err := fs.Create(p, root, "log")
		if err != nil {
			return err
		}
		// 101 appends of 10 bytes stay within the file's first page.
		if n := testing.AllocsPerRun(100, func() {
			at, _ := fs.Getattr(p, id)
			_, _ = fs.Write(p, id, at.Size, data[:10])
		}); n != 0 {
			t.Errorf("append within the last page allocates %v/op", n)
		}
		// Each file grows to 8,400 bytes, three pages; after the first
		// cycle every page comes from the free list.
		cycle := func() {
			id, _ := fs.Create(p, root, "f")
			for off := int64(0); off < 2*mem.PageSize; off += int64(len(data)) {
				_, _ = fs.Write(p, id, off, data)
			}
			_ = fs.Unlink(p, root, "f")
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("create/write/unlink cycle allocates %v/op", n)
		}
		return nil
	})
}
