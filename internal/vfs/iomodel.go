package vfs

import (
	"sort"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/kperf"
	"repro/internal/sim"
)

// BlockKey identifies one cached disk block of one file system.
type BlockKey struct {
	Node  NodeID
	Block int64
}

// diskBlock maps a (node, block) pair to a linear disk address so the
// latency model sees file-internal sequentiality.
func diskBlock(k BlockKey) int64 {
	return int64(k.Node)<<20 | (k.Block & 0xFFFFF)
}

// IOModel is a write-back buffer cache in front of one disk. File
// systems call ReadBlock/WriteBlock for every data or metadata block
// they touch; hits cost nothing extra (the CPU cost is part of the
// operation), misses block the process for the disk latency, and
// evictions of dirty blocks write back.
type IOModel struct {
	Dev      *disk.Device
	Capacity int // blocks held in cache; 0 means unbounded

	// DirtyLimit, when positive, enables write throttling: a writer
	// dirtying more than this many blocks pauses briefly
	// (balance_dirty_pages) while the background flusher thread
	// writes the backlog out — the flusher's disk time is not charged
	// to the writer, but the short sleeps shape its scheduling
	// priority exactly as on Linux 2.6.
	DirtyLimit    int
	ThrottleDelay sim.Cycles

	table map[BlockKey]*cacheEntry
	head  *cacheEntry // most recent
	tail  *cacheEntry // least recent
	spare *cacheEntry // evicted and dropped entries, linked by next
	dirty int

	// Stats.
	Hits, Misses, Writebacks, SyncWrites int64
	Throttles, FlusherWrites             int64
}

type cacheEntry struct {
	key        BlockKey
	dirty      bool
	prev, next *cacheEntry
}

// NewIOModel creates a cache of capacity blocks over dev.
func NewIOModel(dev *disk.Device, capacity int) *IOModel {
	return &IOModel{Dev: dev, Capacity: capacity, table: make(map[BlockKey]*cacheEntry)}
}

func (io *IOModel) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		io.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		io.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (io *IOModel) pushFront(e *cacheEntry) {
	e.next = io.head
	if io.head != nil {
		io.head.prev = e
	}
	io.head = e
	if io.tail == nil {
		io.tail = e
	}
}

// insert caches key as the most recently used block, reusing a spare
// entry when there is one.
func (io *IOModel) insert(key BlockKey, dirty bool) {
	e := io.spare
	if e != nil {
		io.spare = e.next
		*e = cacheEntry{key: key, dirty: dirty}
	} else {
		e = &cacheEntry{key: key, dirty: dirty}
	}
	io.table[key] = e
	io.pushFront(e)
}

// remove takes e out of the cache and keeps it as a spare.
func (io *IOModel) remove(e *cacheEntry) {
	io.unlink(e)
	delete(io.table, e.key)
	e.next = io.spare
	io.spare = e
}

// touch marks e most-recently-used.
func (io *IOModel) touch(e *cacheEntry) {
	if io.head == e {
		return
	}
	io.unlink(e)
	io.pushFront(e)
}

// evictIfNeeded removes LRU entries beyond capacity, writing back
// dirty victims (blocking p for the write latency).
func (io *IOModel) evictIfNeeded(p *kernel.Process) {
	if io.Capacity <= 0 {
		return
	}
	for len(io.table) > io.Capacity {
		victim := io.tail
		if victim == nil {
			return
		}
		io.remove(victim)
		if victim.dirty {
			io.dirty--
			io.Writebacks++
			p.BlockOn(kperf.SubDisk, io.Dev.AccessTime(diskBlock(victim.key), disk.BlockSize, true))
		}
	}
}

// ReadBlock brings a block into the cache, blocking on a miss.
func (io *IOModel) ReadBlock(p *kernel.Process, key BlockKey) {
	if e, ok := io.table[key]; ok {
		io.Hits++
		io.touch(e)
		return
	}
	io.Misses++
	p.BlockOn(kperf.SubDisk, io.Dev.AccessTime(diskBlock(key), disk.BlockSize, false))
	io.insert(key, false)
	io.evictIfNeeded(p)
}

// WriteBlock dirties a block in the cache (write-back). A miss on
// write allocates the block without reading (whole-block overwrite
// semantics, fine for the workloads simulated).
func (io *IOModel) WriteBlock(p *kernel.Process, key BlockKey) {
	if e, ok := io.table[key]; ok {
		io.Hits++
		if !e.dirty {
			e.dirty = true
			io.dirty++
		}
		io.touch(e)
		io.throttle(p)
		return
	}
	io.Misses++
	io.dirty++
	io.insert(key, true)
	io.evictIfNeeded(p)
	io.throttle(p)
}

// throttle pauses a writer over the dirty limit while the background
// flusher cleans the backlog (its disk time is asynchronous).
func (io *IOModel) throttle(p *kernel.Process) {
	if io.DirtyLimit <= 0 || io.dirty <= io.DirtyLimit {
		return
	}
	io.Throttles++
	delay := io.ThrottleDelay
	if delay == 0 {
		delay = 400_000
	}
	p.BlockFor(delay)
	// The flusher wrote the oldest dirty blocks while we slept.
	for e := io.tail; e != nil && io.dirty > io.DirtyLimit/2; e = e.prev {
		if e.dirty {
			e.dirty = false
			io.dirty--
			io.FlusherWrites++
			io.Dev.AccessTime(diskBlock(e.key), disk.BlockSize, true)
		}
	}
}

// WriteThrough writes a block synchronously to the disk (journal
// commits), leaving it clean in the cache.
func (io *IOModel) WriteThrough(p *kernel.Process, key BlockKey) {
	p.BlockOn(kperf.SubDisk, io.Dev.AccessTime(diskBlock(key), disk.BlockSize, true))
	if e, ok := io.table[key]; ok {
		if e.dirty {
			e.dirty = false
			io.dirty--
		}
		io.touch(e)
		return
	}
	io.insert(key, false)
	io.evictIfNeeded(p)
}

// Drop invalidates a block (file deletion) without writeback.
func (io *IOModel) Drop(key BlockKey) {
	if e, ok := io.table[key]; ok {
		if e.dirty {
			io.dirty--
		}
		io.remove(e)
	}
}

// Sync writes back every dirty block, in disk order (the elevator):
// sequential appends flush without seeking.
func (io *IOModel) Sync(p *kernel.Process) {
	var dirty []*cacheEntry
	for e := io.head; e != nil; e = e.next {
		if e.dirty {
			dirty = append(dirty, e)
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		return diskBlock(dirty[i].key) < diskBlock(dirty[j].key)
	})
	for _, e := range dirty {
		e.dirty = false
		io.dirty--
		io.SyncWrites++
		p.BlockOn(kperf.SubDisk, io.Dev.AccessTime(diskBlock(e.key), disk.BlockSize, true))
	}
}

// Cached reports the number of resident blocks.
func (io *IOModel) Cached() int { return len(io.table) }
