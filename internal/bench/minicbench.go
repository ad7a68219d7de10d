package bench

import (
	"fmt"
	"testing"

	"repro/internal/kgcc"
	"repro/internal/mem"
	"repro/internal/minic"
	"repro/internal/sim"
)

// Minic engine micro-benchmarks: the tree-walking interpreter vs the
// bytecode VM on the two shapes that dominate in-kernel execution —
// a KGCC-checked probe fire (no arguments, array traffic, runtime
// checks) and a ku_call-style arithmetic loop (argument in, scalar
// out). The root BenchmarkMinicEngines runs them.

// minicProbeSrc is the probe-fire shape with the loop count baked in.
func minicProbeSrc(n int) string {
	return fmt.Sprintf(`
int probe() {
	int a[64];
	int s = 0;
	for (int i = 0; i < %d; i++) { a[i & 63] = i; s += a[i & 63]; }
	return s;
}`, n)
}

// minicCallSrc is the ku_call shape: pure arithmetic, argument-driven.
const minicCallSrc = `
int work(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s += i * 3 - (i & 7); }
	return s;
}`

func minicUnit(b *testing.B, src string) *minic.Unit {
	b.Helper()
	unit, err := minic.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	kgcc.InstrumentUnit(unit, kgcc.FullChecks())
	return unit
}

func minicBenchInterp(b *testing.B, src, entry string, args ...int64) {
	unit := minicUnit(b, src)
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("bench", mem.NewPhys(0), &costs)
	ip, err := minic.NewInterp(as, unit)
	if err != nil {
		b.Fatal(err)
	}
	ip.MaxSteps = 1 << 62
	kgcc.Attach(ip, kgcc.NewMap(&costs, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Call(entry, args...); err != nil {
			b.Fatal(err)
		}
	}
}

func minicBenchVM(b *testing.B, src, entry string, args ...int64) {
	mod, err := minic.CompileUnit(minicUnit(b, src))
	if err != nil {
		b.Fatal(err)
	}
	costs := sim.DefaultCosts()
	as := mem.NewAddressSpace("bench", mem.NewPhys(0), &costs)
	vm, err := minic.NewVM(as, mod)
	if err != nil {
		b.Fatal(err)
	}
	vm.MaxSteps = 1 << 62
	kgcc.Attach(vm, kgcc.NewMap(&costs, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Call(entry, args...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchMinicProbeInterp / BenchMinicProbeVM: one probe fire with n
// loop iterations under full KGCC checks.
func BenchMinicProbeInterp(b *testing.B, n int) { minicBenchInterp(b, minicProbeSrc(n), "probe") }
func BenchMinicProbeVM(b *testing.B, n int)     { minicBenchVM(b, minicProbeSrc(n), "probe") }

// BenchMinicCallInterp / BenchMinicCallVM: one ku_call-shaped
// invocation with the iteration count as the argument.
func BenchMinicCallInterp(b *testing.B, n int) {
	minicBenchInterp(b, minicCallSrc, "work", int64(n))
}
func BenchMinicCallVM(b *testing.B, n int) {
	minicBenchVM(b, minicCallSrc, "work", int64(n))
}
