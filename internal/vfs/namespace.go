package vfs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kernel"
)

// Namespace is the mount table plus path resolution. A root file
// system is mounted at "/"; additional file systems can be mounted on
// existing directories, and character devices appear under their
// registered paths.
type Namespace struct {
	Dc     *Dcache
	mounts []mountPoint // sorted by descending prefix length
	devs   map[string]Device
}

type mountPoint struct {
	prefix string // "/" or "/mnt/x"
	fs     FS
}

// NewNamespace creates a namespace rooted at rootFS.
func NewNamespace(rootFS FS) *Namespace {
	ns := &Namespace{Dc: NewDcache(), devs: make(map[string]Device)}
	ns.mounts = []mountPoint{{prefix: "/", fs: rootFS}}
	return ns
}

// Mount attaches fs at path (the path itself need not exist in the
// parent; mount points shadow, as in Linux).
func (ns *Namespace) Mount(path string, fs FS) error {
	path = Clean(path)
	for _, m := range ns.mounts {
		if m.prefix == path {
			return fmt.Errorf("vfs: %s already mounted", path)
		}
	}
	ns.mounts = append(ns.mounts, mountPoint{prefix: path, fs: fs})
	sort.Slice(ns.mounts, func(i, j int) bool {
		return len(ns.mounts[i].prefix) > len(ns.mounts[j].prefix)
	})
	return nil
}

// RegisterDevice exposes dev at path (e.g. "/dev/kernevents").
func (ns *Namespace) RegisterDevice(path string, dev Device) {
	ns.devs[Clean(path)] = dev
}

// LookupDevice returns the device registered at path.
func (ns *Namespace) LookupDevice(path string) (Device, bool) {
	d, ok := ns.devs[Clean(path)]
	return d, ok
}

// Clean normalizes a path: leading slash, no trailing slash, no empty
// or "." components. A path that is already clean comes back as is,
// without allocating.
func Clean(path string) string {
	if isClean(path) {
		return path
	}
	parts := Split(path)
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// isClean reports whether Clean would return path unchanged.
func isClean(path string) bool {
	if path == "/" {
		return true
	}
	if !strings.HasPrefix(path, "/") {
		return false
	}
	for rest := path[1:]; ; {
		c, after, more := strings.Cut(rest, "/")
		if c == "" || c == "." || c == ".." {
			return false
		}
		if !more {
			return true
		}
		rest = after
	}
}

// Split breaks a path into components, dropping empty and "."
// segments and resolving ".." lexically.
func Split(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, c)
		}
	}
	return out
}

// mountFor returns the longest-prefix mount covering path and the
// rest of the cleaned path below it: its components joined by "/",
// or "" for the mount root itself.
func (ns *Namespace) mountFor(path string) (FS, string) {
	path = Clean(path)
	for _, m := range ns.mounts {
		if m.prefix == "/" {
			return m.fs, path[1:]
		}
		rest, ok := strings.CutPrefix(path, m.prefix)
		switch {
		case !ok:
		case rest == "":
			return m.fs, ""
		case rest[0] == '/':
			return m.fs, rest[1:]
		}
	}
	// The "/" mount always matches; unreachable.
	panic("vfs: no root mount")
}

// Resolve walks path to its inode. Its error names the path.
func (ns *Namespace) Resolve(p *kernel.Process, path string) (FS, NodeID, error) {
	fs, id, err := ns.Lookup(p, path)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %s", err, path)
	}
	return fs, id, nil
}

// Lookup is Resolve with the file system's error as is: a caller that
// expects a miss, such as creat of a new name, formats nothing.
func (ns *Namespace) Lookup(p *kernel.Process, path string) (FS, NodeID, error) {
	fs, rest := ns.mountFor(path)
	id, err := ns.walk(p, fs, rest)
	if err != nil {
		return nil, 0, err
	}
	return fs, id, nil
}

// ResolveParent walks to the parent directory of path and returns it
// along with the final component.
func (ns *Namespace) ResolveParent(p *kernel.Process, path string) (FS, NodeID, string, error) {
	fs, rest := ns.mountFor(path)
	if rest == "" {
		return nil, 0, "", fmt.Errorf("%w: cannot take parent of mount root %s", ErrInval, path)
	}
	dir, name := "", rest
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		dir, name = rest[:i], rest[i+1:]
	}
	id, err := ns.walk(p, fs, dir)
	if err != nil {
		return nil, 0, "", fmt.Errorf("%w: %s", err, path)
	}
	return fs, id, name, nil
}

// walk looks up rel's components ("a/b", or "" for the root) one by
// one from fs's root, each through the dcache.
func (ns *Namespace) walk(p *kernel.Process, fs FS, rel string) (NodeID, error) {
	cur := fs.Root()
	for rel != "" {
		var name string
		name, rel, _ = strings.Cut(rel, "/")
		id, err := ns.Dc.lookup(p, fs, cur, name)
		if err != nil {
			return 0, err
		}
		cur = id
	}
	return cur, nil
}

// Invalidate drops the dentry for path's final component (after
// unlink/rmdir/rename).
func (ns *Namespace) Invalidate(p *kernel.Process, path string) {
	fs, parent, name, err := ns.ResolveParent(p, path)
	if err != nil {
		return
	}
	ns.Dc.Invalidate(p, fs, parent, name)
}
