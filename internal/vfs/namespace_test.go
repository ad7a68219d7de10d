package vfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
)

// fakeFS is a minimal in-memory FS for namespace tests (the real
// implementations live in subpackages, which vfs cannot import).
type fakeFS struct {
	name    string
	nodes   map[NodeID]map[string]NodeID // dir -> children
	lookups int
	next    NodeID
}

func newFakeFS(name string) *fakeFS {
	return &fakeFS{name: name, nodes: map[NodeID]map[string]NodeID{1: {}}, next: 2}
}

func (f *fakeFS) addDir(parent NodeID, name string) NodeID {
	id := f.next
	f.next++
	f.nodes[parent][name] = id
	f.nodes[id] = map[string]NodeID{}
	return id
}

func (f *fakeFS) FSName() string { return f.name }
func (f *fakeFS) Root() NodeID   { return 1 }
func (f *fakeFS) Lookup(p *kernel.Process, dir NodeID, name string) (NodeID, error) {
	f.lookups++
	children, ok := f.nodes[dir]
	if !ok {
		return 0, ErrNotExist
	}
	id, ok := children[name]
	if !ok {
		return 0, ErrNotExist
	}
	return id, nil
}
func (f *fakeFS) Getattr(p *kernel.Process, n NodeID) (Attr, error) {
	return Attr{ID: n, Type: TypeDir}, nil
}
func (f *fakeFS) Create(p *kernel.Process, dir NodeID, name string) (NodeID, error) {
	return f.addDir(dir, name), nil
}
func (f *fakeFS) Mkdir(p *kernel.Process, dir NodeID, name string) (NodeID, error) {
	return f.addDir(dir, name), nil
}
func (f *fakeFS) Unlink(p *kernel.Process, dir NodeID, name string) error {
	delete(f.nodes[dir], name)
	return nil
}
func (f *fakeFS) Rmdir(p *kernel.Process, dir NodeID, name string) error {
	delete(f.nodes[dir], name)
	return nil
}
func (f *fakeFS) Readdir(p *kernel.Process, dir NodeID) ([]DirEnt, error) { return nil, nil }
func (f *fakeFS) Read(p *kernel.Process, n NodeID, off int64, buf []byte) (int, error) {
	return 0, nil
}
func (f *fakeFS) Write(p *kernel.Process, n NodeID, off int64, data []byte) (int, error) {
	return len(data), nil
}
func (f *fakeFS) Truncate(p *kernel.Process, n NodeID, size int64) error { return nil }
func (f *fakeFS) Rename(p *kernel.Process, od NodeID, on string, nd NodeID, nn string) error {
	return nil
}
func (f *fakeFS) Sync(p *kernel.Process) error { return nil }

var _ FS = (*fakeFS)(nil)
var _ = disk.BlockSize // keep import symmetry with vfs_test

func TestResolveWalksComponents(t *testing.T) {
	root := newFakeFS("root")
	a := root.addDir(1, "a")
	b := root.addDir(a, "b")
	ns := NewNamespace(root)
	run(t, func(p *kernel.Process) error {
		fs, id, err := ns.Resolve(p, "/a/b")
		if err != nil {
			return err
		}
		if fs != FS(root) || id != b {
			t.Errorf("resolved to %v/%d, want %d", fs, id, b)
		}
		return nil
	})
}

func TestResolveMissing(t *testing.T) {
	ns := NewNamespace(newFakeFS("root"))
	run(t, func(p *kernel.Process) error {
		_, _, err := ns.Resolve(p, "/nope")
		if !errors.Is(err, ErrNotExist) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestResolveParent(t *testing.T) {
	root := newFakeFS("root")
	a := root.addDir(1, "a")
	ns := NewNamespace(root)
	run(t, func(p *kernel.Process) error {
		_, parent, name, err := ns.ResolveParent(p, "/a/newfile")
		if err != nil {
			return err
		}
		if parent != a || name != "newfile" {
			t.Errorf("parent=%d name=%q", parent, name)
		}
		if _, _, _, err := ns.ResolveParent(p, "/"); err == nil {
			t.Error("parent of / should fail")
		}
		return nil
	})
}

func TestMountLongestPrefixWins(t *testing.T) {
	root := newFakeFS("root")
	root.addDir(1, "mnt")
	sub := newFakeFS("sub")
	deeper := newFakeFS("deeper")
	subX := sub.addDir(1, "x")
	_ = subX
	ns := NewNamespace(root)
	if err := ns.Mount("/mnt", sub); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount("/mnt/deep", deeper); err != nil {
		t.Fatal(err)
	}
	run(t, func(p *kernel.Process) error {
		fs, _, err := ns.Resolve(p, "/mnt/x")
		if err != nil {
			return err
		}
		if fs.FSName() != "sub" {
			t.Errorf("resolved in %s", fs.FSName())
		}
		fs, _, err = ns.Resolve(p, "/mnt/deep")
		if err != nil {
			return err
		}
		if fs.FSName() != "deeper" {
			t.Errorf("deep mount resolved in %s", fs.FSName())
		}
		return nil
	})

	// Sibling prefixes: /mnt/x must not capture /mnt/xy or /mnt/xyz,
	// and a path equal to a mount prefix is that mount's root.
	ns = NewNamespace(root)
	x, xy := newFakeFS("x"), newFakeFS("xy")
	xb, xya := x.addDir(1, "b"), xy.addDir(1, "a")
	if err := ns.Mount("/mnt/x", x); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount("/mnt/xy", xy); err != nil {
		t.Fatal(err)
	}
	run(t, func(p *kernel.Process) error {
		for _, c := range []struct {
			path string
			fs   string
			id   NodeID
		}{
			{"/mnt/x", "x", 1},
			{"/mnt/xy", "xy", 1},
			{"/mnt/x/b", "x", xb},
			{"/mnt/xy/a", "xy", xya},
			{"/mnt/x/../xy/./a/", "xy", xya},
		} {
			fs, id, err := ns.Resolve(p, c.path)
			if err != nil || fs.FSName() != c.fs || id != c.id {
				t.Errorf("Resolve(%q) = %v/%d, %v; want %s/%d", c.path, fs, id, err, c.fs, c.id)
			}
		}
		if _, _, err := ns.Resolve(p, "/mnt/xyz"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Resolve(/mnt/xyz) err = %v, want ErrNotExist from the root fs", err)
		}
		fs, _, name, err := ns.ResolveParent(p, "/mnt/xyz")
		if err != nil || fs != FS(root) || name != "xyz" {
			t.Errorf("ResolveParent(/mnt/xyz) = %v, %q, %v; want root fs", fs, name, err)
		}
		fs, parent, name, err := ns.ResolveParent(p, "/mnt/xy/a")
		if err != nil || fs != FS(xy) || parent != 1 || name != "a" {
			t.Errorf("ResolveParent(/mnt/xy/a) = %v/%d, %q, %v", fs, parent, name, err)
		}
		if _, _, _, err := ns.ResolveParent(p, "/mnt/x"); !errors.Is(err, ErrInval) {
			t.Errorf("ResolveParent of mount root /mnt/x err = %v, want ErrInval", err)
		}
		return nil
	})
}

func TestDoubleMountFails(t *testing.T) {
	ns := NewNamespace(newFakeFS("root"))
	if err := ns.Mount("/mnt", newFakeFS("a")); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount("/mnt", newFakeFS("b")); err == nil {
		t.Fatal("double mount succeeded")
	}
}

func TestDcacheAvoidsRepeatLookups(t *testing.T) {
	root := newFakeFS("root")
	root.addDir(1, "dir")
	ns := NewNamespace(root)
	run(t, func(p *kernel.Process) error {
		for i := 0; i < 10; i++ {
			if _, _, err := ns.Resolve(p, "/dir"); err != nil {
				return err
			}
		}
		return nil
	})
	if root.lookups != 1 {
		t.Fatalf("FS lookups = %d, want 1 (dcache should absorb the rest)", root.lookups)
	}
	if ns.Dc.Hits != 9 || ns.Dc.Misses != 1 {
		t.Fatalf("dcache hits=%d misses=%d", ns.Dc.Hits, ns.Dc.Misses)
	}
}

func TestDcacheLockAcquiredPerLookup(t *testing.T) {
	root := newFakeFS("root")
	root.addDir(1, "dir")
	ns := NewNamespace(root)
	run(t, func(p *kernel.Process) error {
		for i := 0; i < 5; i++ {
			_, _, _ = ns.Resolve(p, "/dir")
		}
		return nil
	})
	// Each hit takes the lock once; the initial miss takes it twice
	// (probe + insert).
	if ns.Dc.Lock.Acquisitions < 5 {
		t.Fatalf("dcache_lock acquisitions = %d", ns.Dc.Lock.Acquisitions)
	}
}

func TestInvalidateForcesRelookup(t *testing.T) {
	root := newFakeFS("root")
	root.addDir(1, "dir")
	ns := NewNamespace(root)
	run(t, func(p *kernel.Process) error {
		_, _, _ = ns.Resolve(p, "/dir")
		ns.Invalidate(p, "/dir")
		_, _, _ = ns.Resolve(p, "/dir")
		return nil
	})
	if root.lookups != 2 {
		t.Fatalf("FS lookups = %d, want 2 after invalidate", root.lookups)
	}
}

func TestDeviceRegistry(t *testing.T) {
	ns := NewNamespace(newFakeFS("root"))
	ns.RegisterDevice("/dev/kernevents", nil)
	if _, ok := ns.LookupDevice("/dev/kernevents"); !ok {
		t.Fatal("device not found")
	}
	if _, ok := ns.LookupDevice("/dev/null"); ok {
		t.Fatal("phantom device")
	}
}

func TestPathWalkAllocFree(t *testing.T) {
	root := newFakeFS("root")
	root.addDir(root.addDir(1, "a"), "b")
	root.addDir(1, "mnt")
	sub := newFakeFS("sub")
	sub.addDir(1, "x")
	ns := NewNamespace(root)
	if err := ns.Mount("/mnt", sub); err != nil {
		t.Fatal(err)
	}
	ns.RegisterDevice("/dev/kernevents", nil)
	run(t, func(p *kernel.Process) error {
		steps := []struct {
			name string
			fn   func() error
		}{
			{"Resolve", func() error { _, _, err := ns.Resolve(p, "/a/b"); return err }},
			{"Resolve under a mount", func() error { _, _, err := ns.Resolve(p, "/mnt/x"); return err }},
			{"ResolveParent", func() error { _, _, _, err := ns.ResolveParent(p, "/a/b/new"); return err }},
			{"Lookup of a missing name", func() error {
				if _, _, err := ns.Lookup(p, "/a/b/new"); err != ErrNotExist {
					return fmt.Errorf("Lookup of a missing name: %v, want the bare ErrNotExist", err)
				}
				return nil
			}},
			{"LookupDevice", func() error {
				if _, ok := ns.LookupDevice("/dev/kernevents"); !ok {
					return ErrNoDev
				}
				return nil
			}},
		}
		for _, s := range steps {
			if err := s.fn(); err != nil { // warms the dcache
				return err
			}
			if n := testing.AllocsPerRun(100, func() { _ = s.fn() }); n != 0 {
				t.Errorf("%s allocates %v/op", s.name, n)
			}
		}
		return nil
	})
}
