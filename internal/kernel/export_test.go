package kernel

// SetInlineSleep turns m's lone-sleeper path on or off; with it off
// every block hands the CPU to the scheduler goroutine.
func SetInlineSleep(m *Machine, on bool) { m.noInlineSleep = !on }

// InlineSleeps reports how many blocks took the lone-sleeper path.
func InlineSleeps(m *Machine) int64 { return m.inlineSleeps }
