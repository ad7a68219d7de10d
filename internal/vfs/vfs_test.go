package vfs

import (
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
)

// run executes fn as a process on a fresh machine and returns the
// machine for inspection.
func run(t *testing.T, fn func(p *kernel.Process) error) *kernel.Machine {
	t.Helper()
	m := kernel.New(kernel.Config{})
	m.Spawn("test", fn)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIOModelMissThenHit(t *testing.T) {
	io := NewIOModel(disk.New(disk.IDE7200()), 100)
	run(t, func(p *kernel.Process) error {
		key := BlockKey{Node: 1, Block: 0}
		io.ReadBlock(p, key)
		if io.Misses != 1 || io.Hits != 0 {
			t.Errorf("after cold read: hits=%d misses=%d", io.Hits, io.Misses)
		}
		io.ReadBlock(p, key)
		if io.Hits != 1 {
			t.Errorf("warm read did not hit")
		}
		return nil
	})
}

func TestIOModelMissBlocksProcess(t *testing.T) {
	io := NewIOModel(disk.New(disk.IDE7200()), 100)
	var wait int64
	run(t, func(p *kernel.Process) error {
		io.ReadBlock(p, BlockKey{Node: 1, Block: 0})
		_, _, w := p.Times()
		wait = int64(w)
		return nil
	})
	if wait == 0 {
		t.Fatal("cache miss did not block for disk latency")
	}
}

func TestIOModelEvictionWritesBackDirty(t *testing.T) {
	io := NewIOModel(disk.New(disk.IDE7200()), 4)
	run(t, func(p *kernel.Process) error {
		for i := int64(0); i < 10; i++ {
			io.WriteBlock(p, BlockKey{Node: 1, Block: i})
		}
		return nil
	})
	if io.Cached() != 4 {
		t.Fatalf("cached = %d, want 4", io.Cached())
	}
	if io.Writebacks != 6 {
		t.Fatalf("writebacks = %d, want 6", io.Writebacks)
	}
}

func TestIOModelLRUOrder(t *testing.T) {
	io := NewIOModel(disk.New(disk.IDE7200()), 2)
	run(t, func(p *kernel.Process) error {
		a, b, c := BlockKey{1, 0}, BlockKey{1, 1}, BlockKey{1, 2}
		io.ReadBlock(p, a)
		io.ReadBlock(p, b)
		io.ReadBlock(p, a) // refresh a; b is now LRU
		io.ReadBlock(p, c) // evicts b
		misses := io.Misses
		io.ReadBlock(p, a)
		if io.Misses != misses {
			t.Error("a was evicted despite being MRU")
		}
		io.ReadBlock(p, b)
		if io.Misses != misses+1 {
			t.Error("b should have been evicted")
		}
		return nil
	})
}

func TestIOModelSyncFlushesDirty(t *testing.T) {
	io := NewIOModel(disk.New(disk.IDE7200()), 100)
	run(t, func(p *kernel.Process) error {
		io.WriteBlock(p, BlockKey{1, 0})
		io.WriteBlock(p, BlockKey{1, 1})
		io.Sync(p)
		if io.SyncWrites != 2 {
			t.Errorf("sync writes = %d", io.SyncWrites)
		}
		io.Sync(p)
		if io.SyncWrites != 2 {
			t.Errorf("second sync rewrote clean blocks")
		}
		return nil
	})
}

func TestIOModelDrop(t *testing.T) {
	io := NewIOModel(disk.New(disk.IDE7200()), 100)
	run(t, func(p *kernel.Process) error {
		io.WriteBlock(p, BlockKey{1, 0})
		io.Drop(BlockKey{1, 0})
		if io.Cached() != 0 {
			t.Error("drop did not remove block")
		}
		io.Sync(p)
		if io.SyncWrites != 0 {
			t.Error("dropped block written back")
		}
		return nil
	})
}

func TestSplitAndClean(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/", "/"},
		{"", "/"},
		{"/a/b/", "/a/b"},
		{"a/b", "/a/b"},
		{"/a//b", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../a", "/a"},
		{"/a", "/a"},
		{"/a/b", "/a/b"},
		{"/.", "/"},
		{"/a/..", "/"},
		{"/..a", "/..a"},
		{"/a.", "/a."},
		{"//", "/"},
		{"/a/b/.", "/a/b"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	parts := Split("/usr/local/bin")
	if len(parts) != 3 || parts[2] != "bin" {
		t.Errorf("Split = %v", parts)
	}

	// Clean's fast path must agree with the component form on every
	// path built from short segments, clean or not.
	segs := []string{"", ".", "..", "a", "b.", "..a", ".b", "..."}
	var build func(path string, depth int)
	build = func(path string, depth int) {
		if want := "/" + strings.Join(Split(path), "/"); Clean(path) != want {
			t.Errorf("Clean(%q) = %q, want %q", path, Clean(path), want)
		}
		if depth == 0 {
			return
		}
		for _, s := range segs {
			build(path+"/"+s, depth-1)
			if path == "" {
				build(s, depth-1)
			}
		}
	}
	build("", 4)
}

func TestDirEntBytes(t *testing.T) {
	e := DirEnt{Name: "hello"}
	if e.Bytes() != DirEntFixed+5 {
		t.Fatalf("Bytes = %d", e.Bytes())
	}
}

func TestFileTypeString(t *testing.T) {
	if TypeReg.String() != "reg" || TypeDir.String() != "dir" || TypeDev.String() != "dev" {
		t.Fatal("type names")
	}
	if FileType(9).String() != "?" {
		t.Fatal("unknown type")
	}
}

func TestAttrCodec(t *testing.T) {
	a := Attr{ID: 7, Type: TypeDir, Size: 1 << 40, Nlink: 3, Mode: 0o755, Mtime: 123456789}
	b := EncodeAttr(a)
	for _, f := range []struct {
		off  int
		want uint64
	}{{0, 7}, {8, 1 << 40}, {16, 3}, {24, 0o755}, {32, uint64(TypeDir)}, {40, 123456789}} {
		var got uint64
		for i := 7; i >= 0; i-- {
			got = got<<8 | uint64(b[f.off+i])
		}
		if got != f.want {
			t.Errorf("field at offset %d = %d, want %d", f.off, got, f.want)
		}
	}
	for i := 48; i < StatSize; i++ {
		if b[i] != 0 {
			t.Fatalf("padding byte %d = %#x", i, b[i])
		}
	}
	if got := DecodeAttr(b[:]); got != a {
		t.Fatalf("round trip = %+v, want %+v", got, a)
	}
}
