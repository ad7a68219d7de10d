package kgcc

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/minic"
)

// Runtime wires a Map into a minic execution engine: checks, pointer
// arithmetic, stack-frame registration, and the malloc/free builtins
// with object-map bookkeeping ("malloc/free checking").
type Runtime struct {
	Map *Map
	env minic.Env

	heap map[uint64]heapInfo
	// frames tracks each live frame's registered objects for
	// unregistration; frameCache reuses the Object structs (and their
	// composed names) across calls of the same function at the same
	// stack position, so a steady-state probe fire registers its frame
	// without allocating. It is a move-to-front slice rather than a
	// map: the population is tiny (distinct functions × stack depths)
	// and a probe firing in a loop hits entry 0 with one pointer-equal
	// string compare, where a map lookup hashes the function name on
	// every fire.
	frames     [][]*Object
	frameCache []frameEntry
}

type heapInfo struct {
	pages int
	size  int
}

type frameEntry struct {
	fn   string
	base uint64
	objs []*Object
}

// Attach installs the KGCC runtime into an execution engine — the
// tree-walking interpreter or the bytecode VM; both implement
// minic.Env, and the runtime behaves identically on either. Compiled
// code must have been instrumented (Instrument/InstrumentUnit) for
// checks to fire; uninstrumented code runs unchecked, exactly like
// linking against the BCC runtime without compiling with BCC.
func Attach(env minic.Env, m *Map) *Runtime {
	rt := &Runtime{
		Map: m, env: env,
		heap: make(map[uint64]heapInfo),
	}
	var h minic.Hooks
	h.Check = func(kind minic.CheckKind, addr uint64, size int) error {
		return m.CheckAccess(addr, size)
	}
	h.Arith = m.PtrArith
	h.FrameEnter = func(fn string, objs []minic.FrameObj, frameBase mem.Addr) {
		// Frames with no addressable locals (every register-only probe)
		// have nothing to register; FrameExit applies the same guard, so
		// the frames stack stays balanced.
		if len(objs) == 0 {
			return
		}
		base := uint64(frameBase)
		hit := -1
		for i := range rt.frameCache {
			e := &rt.frameCache[i]
			if e.base == base && e.fn == fn {
				hit = i
				break
			}
		}
		if hit < 0 {
			var built []*Object
			for _, o := range objs {
				built = append(built, &Object{
					Base: base + uint64(o.Off),
					Size: uint64(o.Size),
					Kind: KindStack,
					Name: fn + "." + o.Name,
				})
			}
			rt.frameCache = append(rt.frameCache, frameEntry{fn: fn, base: base, objs: built})
			hit = len(rt.frameCache) - 1
		}
		if hit > 0 {
			e := rt.frameCache[hit]
			copy(rt.frameCache[1:hit+1], rt.frameCache[:hit])
			rt.frameCache[0] = e
		}
		cached := rt.frameCache[0].objs
		for _, o := range cached {
			m.RegisterObj(o)
		}
		rt.frames = append(rt.frames, cached)
	}
	h.FrameExit = func(fn string, objs []minic.FrameObj, frameBase mem.Addr) {
		if len(objs) == 0 || len(rt.frames) == 0 {
			return
		}
		rec := rt.frames[len(rt.frames)-1]
		rt.frames = rt.frames[:len(rt.frames)-1]
		for _, o := range rec {
			m.Unregister(o.Base)
		}
	}
	env.SetHooks(h)
	env.SetBuiltin("malloc", rt.builtinMalloc)
	env.SetBuiltin("free", rt.builtinFree)

	// String literals are global objects.
	env.EachString(func(addr mem.Addr, size int) {
		m.Register(uint64(addr), uint64(size), KindGlobal, "strlit")
	})
	return rt
}

func (rt *Runtime) builtinMalloc(env minic.Env, args []int64) (int64, error) {
	if len(args) != 1 || args[0] <= 0 {
		return 0, fmt.Errorf("kgcc: malloc expects one positive argument")
	}
	size := int(args[0])
	pages := mem.PagesFor(size)
	base, err := env.Mem().MapRegion(pages, mem.PermRW)
	if err != nil {
		return 0, err
	}
	rt.heap[uint64(base)] = heapInfo{pages: pages, size: size}
	rt.Map.Register(uint64(base), uint64(size), KindHeap, "malloc")
	return int64(base), nil
}

func (rt *Runtime) builtinFree(env minic.Env, args []int64) (int64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("kgcc: free expects one argument")
	}
	base := uint64(args[0])
	info, ok := rt.heap[base]
	if !ok {
		// free() of a bad pointer — exactly the class of bug the
		// malloc/free checking exists for.
		return 0, rt.Map.violate(Violation{Addr: base, Kind: "bad-free"})
	}
	delete(rt.heap, base)
	rt.Map.Unregister(base)
	for i := 0; i < info.pages; i++ {
		if err := env.Mem().Unmap(mem.Addr(base) + mem.Addr(i*mem.PageSize)); err != nil {
			return 0, err
		}
	}
	return 0, nil
}
