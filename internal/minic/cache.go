package minic

import (
	"crypto/sha256"
	"encoding/binary"
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
