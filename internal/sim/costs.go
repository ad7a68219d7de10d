package sim

// Costs is the machine cost model. All calibration lives here; no
// other package hard-codes timing. The defaults are tuned so the
// paper's experiments E1-E12 (see DESIGN.md) land inside the bands
// reported in the paper on the simulated machine.
type Costs struct {
	// Trap is the cost of one user->kernel->user crossing: mode
	// switch, register save/restore, syscall dispatch, and the
	// indirect cache/TLB pollution the paper attributes to context
	// switches between protection domains.
	Trap Cycles

	// UserDispatch is the user-side cost of issuing one system call:
	// the libc wrapper, argument marshalling, and errno handling.
	// Consolidated and compound calls pay it once per batch instead of
	// once per operation, which is where the paper's large *user* time
	// savings come from.
	UserDispatch Cycles

	// CopyUserByte is the per-byte cost of copying across the
	// user/kernel boundary (copy_to_user / copy_from_user).
	CopyUserByte Cycles

	// CopyKernByte is the per-byte cost of a copy that stays inside
	// the kernel (e.g. page cache to a Cosy data segment). It is
	// cheaper than a boundary copy: no access_ok checks, no fixups.
	CopyKernByte Cycles

	// CtxSwitch is the direct cost of switching between processes.
	CtxSwitch Cycles

	// TimeSlice is the scheduler quantum.
	TimeSlice Cycles

	// TLBMiss is charged when a memory access misses the simulated
	// TLB; Kefence's one-page-per-allocation policy shows up here.
	TLBMiss Cycles

	// PageFault is the cost of entering the page fault handler.
	PageFault Cycles

	// SegLoad is the cost of a far call into an isolated segment
	// (Cosy safety mode A).
	SegLoad Cycles

	// SegCheck is the per-access cost of a segment limit check that
	// is explicit in software (mode B data-segment checks).
	SegCheck Cycles

	// Kmalloc/Kfree are slab allocator operation costs; Vmalloc/Vfree
	// are the page-granular allocator, slower because they edit page
	// tables. VfreeNoHash is the unhashed vfree lookup the paper's
	// hash table replaces.
	Kmalloc, Kfree     Cycles
	Vmalloc, Vfree     Cycles
	VfreeNoHash        Cycles
	MapPage, UnmapPage Cycles

	// CosyDecodeOp is the per-operation cost of decoding a compound
	// in the Cosy kernel extension; CosyExecOp is the base cost of
	// interpreting one non-syscall compound instruction.
	CosyDecodeOp Cycles
	CosyExecOp   Cycles

	// KernelCall is the cost of invoking a system call handler from
	// inside the kernel (the Cosy extension path: "the same as a
	// normal process", minus the trap).
	KernelCall Cycles

	// CheckBase is the fixed cost of one KGCC runtime check
	// (function call into the runtime); CheckSplayNode is charged per
	// splay-tree node touched during the object-map lookup.
	CheckBase      Cycles
	CheckSplayNode Cycles

	// EventDispatch is the in-kernel cost of log_event reaching the
	// dispatcher; EventCallback per registered callback; EventEnqueue
	// for pushing an entry into the lock-free ring.
	EventDispatch Cycles
	EventCallback Cycles
	EventEnqueue  Cycles

	// SpinLock/SpinUnlock are the uncontended lock primitive costs.
	SpinLock, SpinUnlock Cycles

	// ProbeDispatch is the fixed cost of firing a tracepoint that has
	// at least one kprobe program attached (context setup + program
	// table walk). Tracepoints with no programs attached charge
	// nothing at all.
	ProbeDispatch Cycles

	// ProbeInstr is the per-IR-instruction cost of executing a
	// verified kprobe program in the in-kernel interpreter.
	ProbeInstr Cycles

	// ProbeMapOp is the cost of one aggregation-map helper operation
	// (hash update or histogram observe) from a kprobe program.
	ProbeMapOp Cycles

	// ProbeVerifyInstr is the attach-time, per-IR-instruction cost of
	// the static verifier pass; it is charged once per probe_attach,
	// never on the tracepoint hot path.
	ProbeVerifyInstr Cycles

	// RingSubmit is the user-side cost of staging one SQE into the
	// shared submission queue (encode + tail publish). Charged at
	// push time, in user mode — the kernel is not involved.
	RingSubmit Cycles

	// RingSqe is the kernel-side per-entry overhead of the ring
	// drain loop: decode, dispatch-table indexing, and completion
	// delivery for one SQE. The entry's handler body then charges
	// exactly what the classic path's handler charges (KernelCall +
	// kernel-copy bytes), so batching saves the Trap+UserDispatch
	// per call and nothing else is hidden.
	RingSqe Cycles

	// MaxKernelCycles is the ring drain's watchdog limit, the one
	// every Cosy compound runs under: a process whose drain has
	// accumulated more kernel time than this when it is scheduled
	// out is terminated.
	MaxKernelCycles Cycles
}

// DefaultCosts returns the calibrated cost model. Individual numbers
// are loosely scaled from published measurements of Linux 2.6 on a
// Pentium 4 (a getpid round trip costs on the order of a thousand
// cycles; a context switch a few thousand) and then calibrated so the
// paper's reported improvement bands reproduce. See EXPERIMENTS.md.
func DefaultCosts() Costs {
	return Costs{
		Trap:         1400,
		UserDispatch: 700,
		CopyUserByte: 4,
		CopyKernByte: 1,
		CtxSwitch:    3000,
		TimeSlice:    1_700_000, // 1ms at 1.7GHz

		TLBMiss:   60,
		PageFault: 2200,

		SegLoad:  900,
		SegCheck: 6,

		Kmalloc:     260,
		Kfree:       200,
		Vmalloc:     4000,
		Vfree:       1800,
		VfreeNoHash: 5200,
		MapPage:     350,
		UnmapPage:   300,

		CosyDecodeOp: 90,
		CosyExecOp:   25,
		KernelCall:   220,

		CheckBase:      120,
		CheckSplayNode: 18,

		EventDispatch: 90,
		EventCallback: 60,
		EventEnqueue:  110,

		SpinLock:   40,
		SpinUnlock: 30,

		ProbeDispatch:    80,
		ProbeInstr:       6,
		ProbeMapOp:       70,
		ProbeVerifyInstr: 45,

		RingSubmit: 40,
		RingSqe:    60,

		MaxKernelCycles: 170_000_000, // 100ms of kernel time
	}
}
