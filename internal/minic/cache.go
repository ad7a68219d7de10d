package minic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
)

// Content-hash module keys. The kernel's extension loader (kgcc.Loader)
// caches a compiled module under the hash of everything that
// determined its bytecode — source text, entry point, instrumentation
// options — so the expensive admission pipeline (parse, analyze,
// verify, instrument, compile) runs once per distinct program and
// every later load of the same content is a cache hit that skips both
// the host work and the simulated verification charge. This is the
// eBPF "verify once, attach everywhere" economics from the paper, made
// explicit.

// CacheKey is a content hash identifying a compiled module.
type CacheKey [32]byte

func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

// HashParts derives a cache key from an ordered list of parts. Each
// part is length-prefixed before hashing, so part boundaries are
// unambiguous ("ab","c" and "a","bc" hash differently).
func HashParts(parts ...string) CacheKey {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// CachedModule is a content-hash module cache on disk: it returns the
// encoded module stored as <key>.kmod in dir, or builds and encodes
// the module and writes it there, creating dir if needed. It also
// returns the file's path and whether the file was already there.
func CachedModule(dir string, key CacheKey, build func() (*Module, error)) (enc []byte, path string, hit bool, err error) {
	path = filepath.Join(dir, key.String()+".kmod")
	if enc, err = os.ReadFile(path); err == nil {
		return enc, path, true, nil
	}
	mod, err := build()
	if err != nil {
		return nil, path, false, err
	}
	enc = EncodeModule(mod)
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, path, false, err
	}
	if err = os.WriteFile(path, enc, 0o644); err != nil {
		return nil, path, false, err
	}
	return enc, path, false, nil
}
