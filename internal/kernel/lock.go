package kernel

// SpinLock is a kernel spinlock. On the simulated single-CPU machine
// contention cannot occur (processes hand off cooperatively), so the
// lock models acquisition cost and provides the instrumentation hook
// the event-monitoring evaluation uses on dcache_lock.
type SpinLock struct {
	Name string
	// Probe, if set, is invoked on every acquire (true) and release
	// (false) with the acting process and the lock's identity; the
	// wiring layer points this at kmon's LogEvent without introducing
	// a package dependency.
	Probe func(p *Process, acquire bool, lock *SpinLock)

	held bool
	// Acquisitions counts successful locks, the paper's "this lock
	// was hit an average of 8,805 times a second" metric.
	Acquisitions uint64
}

// Lock acquires the spinlock, charging the cost model via p.
func (l *SpinLock) Lock(p *Process) {
	if l.held {
		panic("kernel: recursive spinlock acquisition of " + l.Name +
			" (single-CPU simulation cannot spin)")
	}
	p.ChargeSys(p.M.Costs.SpinLock)
	l.held = true
	l.Acquisitions++
	if l.Probe != nil {
		l.Probe(p, true, l)
	}
}

// Unlock releases the spinlock.
func (l *SpinLock) Unlock(p *Process) {
	if !l.held {
		panic("kernel: unlock of unheld spinlock " + l.Name)
	}
	p.ChargeSys(p.M.Costs.SpinUnlock)
	l.held = false
	if l.Probe != nil {
		l.Probe(p, false, l)
	}
}
