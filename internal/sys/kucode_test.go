package sys

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kgcc"
	"repro/internal/kprobe"
	"repro/internal/kring"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestKuLoadCallRoundTrip(t *testing.T) {
	m, k := env()
	const src = `
	int scale(int x) {
		int tab[16];
		int i;
		for (i = 0; i < 16; i++) { tab[i] = i * x; }
		return tab[15];
	}`
	p := run(t, m, k, func(pr *Proc) error {
		id, err := pr.KuLoad(KuSpec{Source: src, Entry: "scale", Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		v, err := pr.KuCall(id, 3)
		if err != nil {
			return err
		}
		if v != 45 {
			t.Errorf("ku_call = %d; want 45", v)
		}
		ext, ok := k.KuExt(id)
		if !ok {
			t.Fatal("loaded extension not registered")
		}
		if ext.Calls != 1 {
			t.Errorf("ext.Calls = %d", ext.Calls)
		}
		if ext.Stats.ElidedProven == 0 {
			t.Errorf("kcheck elided nothing at load: %s", ext.Stats)
		}
		if k.Calls[NrKuLoad] != 1 || k.Calls[NrKuCall] != 1 {
			t.Errorf("syscall counts: ku_load %d, ku_call %d", k.Calls[NrKuLoad], k.Calls[NrKuCall])
		}
		return nil
	})
	if _, sysT, _ := p.Times(); sysT == 0 {
		t.Error("kucode execution charged no kernel time")
	}
}

func TestKuLoadRejectsUnsafeUnits(t *testing.T) {
	m, k := env()
	cases := []struct {
		name, src, want string
	}{
		{
			name: "recursion",
			src:  `int main(int n) { if (n) { return main(n - 1); } return 0; }`,
			want: "recursion",
		},
		{
			name: "provable oob",
			src:  `int main() { int a[4]; a[9] = 1; return 0; }`,
			want: "out of bounds",
		},
	}
	run(t, m, k, func(pr *Proc) error {
		for _, tc := range cases {
			id, err := pr.KuLoad(KuSpec{Source: tc.src, Checks: kgcc.KcheckOptions()})
			if err == nil {
				t.Errorf("%s: loaded (id %d); want rejection", tc.name, id)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: diagnostic %q does not mention %q", tc.name, err, tc.want)
			}
		}
		return nil
	})
}

func TestKuCallViolationKillsExtension(t *testing.T) {
	m, k := env()
	// The off-by-one depends on the argument, so no load-time analysis
	// can reject it; the retained runtime check catches it and the
	// extension dies, exactly like a kprobe program.
	const src = `
	int main(int n) {
		int a[4];
		int i;
		for (i = 0; i < n; i++) { a[i] = i; }
		return a[0];
	}`
	run(t, m, k, func(pr *Proc) error {
		id, err := pr.KuLoad(KuSpec{Source: src, Checks: kgcc.KcheckOptions()})
		if err != nil {
			return err
		}
		if _, err := pr.KuCall(id, 4); err != nil {
			t.Fatalf("in-bounds call failed: %v", err)
		}
		if _, err := pr.KuCall(id, 5); !errors.Is(err, kgcc.ErrViolation) {
			t.Fatalf("out-of-bounds call: err = %v; want a kgcc violation", err)
		}
		if _, err := pr.KuCall(id, 4); !errors.Is(err, ErrKuDead) {
			t.Fatalf("call after violation: err = %v; want ErrKuDead", err)
		}
		ext, _ := k.KuExt(id)
		if ext.Err == nil {
			t.Error("extension Err not recorded")
		}
		return nil
	})
}

// TestKuLoadCacheHitSkipsVerification pins the content-hash cache
// contract: reloading byte-identical source (same entry, same check
// options) must hit the module cache, skip the per-instruction
// verification charge, and still produce an extension that computes
// the same results.
func TestKuLoadCacheHitSkipsVerification(t *testing.T) {
	m, k := env()
	const src = `
	int scale(int x) {
		int tab[16];
		int i;
		for (i = 0; i < 16; i++) { tab[i] = i * x; }
		return tab[15];
	}`
	spec := KuSpec{Source: src, Entry: "scale", Checks: kgcc.KcheckOptions()}
	run(t, m, k, func(pr *Proc) error {
		id1, err := pr.KuLoad(spec)
		if err != nil {
			return err
		}
		e1, _ := k.KuExt(id1)
		if e1.CacheHit {
			t.Fatal("first load reported a cache hit")
		}
		id2, err := pr.KuLoad(spec)
		if err != nil {
			return err
		}
		e2, _ := k.KuExt(id2)
		if !e2.CacheHit {
			t.Fatal("second load of identical source missed the cache")
		}
		// The miss paid verification (ProbeVerifyInstr per analyzed
		// instruction) on top of VM setup; the hit must not.
		verify := sim.Cycles(e1.Insns) * m.Costs.ProbeVerifyInstr
		if e1.Cycles < verify {
			t.Fatalf("miss load cost %d below its own verify charge %d", e1.Cycles, verify)
		}
		if e2.Cycles > e1.Cycles-verify {
			t.Fatalf("hit load cost %d; want at most miss cost %d minus verify charge %d",
				e2.Cycles, e1.Cycles, verify)
		}
		// Instrumentation metadata survives the cache.
		if e2.Insns != e1.Insns || e2.Stats != e1.Stats {
			t.Errorf("cached metadata differs: insns %d/%d, stats %v/%v",
				e1.Insns, e2.Insns, e1.Stats, e2.Stats)
		}
		v1, err := pr.KuCall(id1, 7)
		if err != nil {
			return err
		}
		v2, err := pr.KuCall(id2, 7)
		if err != nil {
			return err
		}
		if v1 != v2 || v1 != 105 {
			t.Errorf("ku_call results diverge: %d vs %d (want 105)", v1, v2)
		}
		// Different check options are a different cache key: no hit.
		id3, err := pr.KuLoad(KuSpec{Source: src, Entry: "scale", Checks: kgcc.FullChecks()})
		if err != nil {
			return err
		}
		if e3, _ := k.KuExt(id3); e3.CacheHit {
			t.Error("load with different check options hit the cache")
		}
		return nil
	})
}

func TestKuCallUnknownExtension(t *testing.T) {
	m, k := env()
	run(t, m, k, func(pr *Proc) error {
		if _, err := pr.KuCall(42); err == nil {
			t.Error("ku_call on unknown id succeeded")
		}
		return nil
	})
}

// TestKuLoadEntryNotSkippedByCache pins the cache-key contract: the
// entry name is folded into the key, so loading the same source under
// a different entry re-runs admission (and fails on the missing
// function) instead of hitting the cache.
func TestKuLoadEntryNotSkippedByCache(t *testing.T) {
	m, k := env()
	spec := KuSpec{Source: `int main() { return 1; }`, Checks: kgcc.FullChecks()}
	run(t, m, k, func(pr *Proc) error {
		if _, err := pr.KuLoad(spec); err != nil {
			return err
		}
		bad := spec
		bad.Entry = "nosuch"
		if _, err := pr.KuLoad(bad); err == nil {
			t.Error("same source with a bogus entry loaded via cache hit")
		} else if !strings.Contains(err.Error(), "not defined") {
			t.Errorf("rejection %q does not name the missing entry", err)
		}
		return nil
	})
}

// TestKuCallForeignExtension pins per-process extension ids: a
// process that names another process's extension gets the same error
// as for an id never issued, and cannot kill it. Process B calls A's
// off-by-one extension by trap with the argument that would trip its
// runtime check, and by ring anycall with four arguments to its one
// parameter; A's extension must survive for A's next call.
func TestKuCallForeignExtension(t *testing.T) {
	m, k := env()
	const src = `
	int main(int n) {
		int a[4];
		int i;
		for (i = 0; i < n; i++) { a[i] = i; }
		return a[0];
	}`
	var id int
	var bDone bool
	a := m.Spawn("a", func(p *kernel.Process) error {
		pr := NewProc(k, p)
		var err error
		if id, err = pr.KuLoad(KuSpec{Source: src, Checks: kgcc.KcheckOptions()}); err != nil {
			return err
		}
		for !bDone {
			p.BlockFor(m.Costs.TimeSlice)
		}
		if _, err := pr.KuCall(id, 4); err != nil {
			t.Errorf("owner's call after a foreign call: %v", err)
		}
		return nil
	})
	b := m.Spawn("b", func(p *kernel.Process) error {
		defer func() { bDone = true }()
		pr := NewProc(k, p)
		for id == 0 {
			p.BlockFor(m.Costs.TimeSlice)
		}
		if _, err := pr.KuCall(id, 5); err == nil || !strings.Contains(err.Error(), "no extension") {
			t.Errorf("foreign ku_call: err = %v; want \"no extension\"", err)
		}
		h, err := pr.RingSetup(4, 512)
		if err != nil {
			return err
		}
		if err := pushAll(h, kring.SQE{Op: kring.OpAnycall, Ext: uint32(id), Args: [4]int64{5}}); err != nil {
			return err
		}
		if _, err := h.Enter(); err != nil {
			return err
		}
		if _, herr, err := h.Pop(); err != nil || herr == nil || !strings.Contains(herr.Error(), "no extension") {
			t.Errorf("foreign anycall: entry error %v (pop %v); want \"no extension\"", herr, err)
		}
		return nil
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*kernel.Process{a, b} {
		if p.Err() != nil {
			t.Fatalf("process %s: %v", p.Name, p.Err())
		}
	}
	if ext, _ := k.KuExt(id); ext.Err != nil || ext.Calls != 1 {
		t.Errorf("extension after a foreign call: err %v, %d calls; want alive with the owner's one call", ext.Err, ext.Calls)
	}
}

// TestKuLoadCopiesBytesIn: ku_load's copyin counts the extension
// source it carries across the boundary.
func TestKuLoadCopiesBytesIn(t *testing.T) {
	m, k := env()
	const src = `int main() { return 1; }`
	run(t, m, k, func(pr *Proc) error {
		before := k.BytesIn
		if _, err := pr.KuLoad(KuSpec{Source: src, Checks: kgcc.FullChecks()}); err != nil {
			return err
		}
		if got := k.BytesIn - before; got < int64(len(src)) {
			t.Errorf("ku_load of %d bytes of source copied in %d bytes", len(src), got)
		}
		return nil
	})
}

// FuzzSourceAdmission drives arbitrary source text through both front
// ends of the extension loader: as a ku_load extension under full
// checks and under kcheck elision (each then called twice with every
// argument aimed at a sentinel in the shared kucode space) and as a
// probe_attach program with entry main at syscall_exit (then one fire
// and a probe_read). Every input must end in a rejection, a value or
// a killed program; the process must complete its next system call;
// and the sentinel, planted after a first extension, must survive.
func FuzzSourceAdmission(f *testing.F) {
	for _, src := range []string{
		`int main() { return 7; }`,
		// Off-by-one: a runtime check kills it when n > 4.
		`
	int main(int n) {
		int a[4];
		int i;
		for (i = 0; i < n; i++) { a[i] = i; }
		return a[0];
	}`,
		// The latency-aggregation probe.
		`
	int main() {
		int k;
		k = ctx_pid() * 256 + ctx_nr();
		map_hist(0, k, ctx_cycles());
		map_add(1, k, 1);
		return 0;
	}`,
		// E10's packet filter.
		`
	int main(int seed, int rounds) {
		int tab[64];
		int pkt[32];
		int i;
		int r;
		int sum = seed & 63;
		for (i = 0; i < 64; i++) { tab[i] = 0; }
		for (r = 0; r < rounds; r++) {
			for (i = 0; i < 32; i++) { pkt[i] = (seed + r * 31 + i * 7) & 255; }
			for (i = 0; i < 32; i++) { sum = sum + pkt[i]; }
			tab[sum & 63] = tab[sum & 63] + 1;
		}
		int *acc = malloc(64);
		for (i = 0; i < 8; i++) { acc[i] = tab[i * 8]; }
		sum = 0;
		for (i = 0; i < 8; i++) { sum = sum + acc[i]; }
		free(acc);
		return sum;
	}`,
		// The dbscan anycall pump.
		`
	int main(int pos, int prev, int err, int blk) {
		if (prev > 0) { return (blk * 8) + 2; }
		return 0;
	}`,
		// Pointer escapes the probe verifier rejects.
		`int main() { int x; x = 7; map_add(0, &x, 1); return 0; }`,
		`int main() { int x; x = 7; return &x; }`,
	} {
		f.Add(src)
	}
	probeMaps := []kprobe.MapSpec{{Name: "lat", Kind: kprobe.MapHist}, {Name: "calls", Kind: kprobe.MapHash}}
	f.Fuzz(func(t *testing.T, src string) {
		m, k := env()
		// An extension may malloc up to the machine's whole 884 MB of
		// frames; a small pool for everything the fuzzed process and
		// the loaders map keeps a fuzz worker's host memory bounded.
		m.Phys = mem.NewPhys(16 << 20)
		k.Probes = kprobe.NewManager(m)
		const magic = 0x5EA7_0F_C0DE
		p := m.Spawn("fuzz", func(p *kernel.Process) error {
			pr := NewProc(k, p)
			if _, err := pr.KuLoad(KuSpec{Source: `int main() { return 7; }`, Checks: kgcc.KcheckOptions()}); err != nil {
				return err
			}
			sentinel, err := k.Ku.AS.MapRegion(1, mem.PermRW)
			if err != nil {
				return err
			}
			if err := k.Ku.AS.WriteU64(sentinel, magic); err != nil {
				return err
			}
			for _, opts := range []kgcc.Options{kgcc.FullChecks(), kgcc.KcheckOptions()} {
				id, err := pr.KuLoad(KuSpec{Source: src, Checks: opts})
				if err != nil {
					continue
				}
				ext, _ := k.KuExt(id)
				args := make([]int64, ext.VM.Mod.Fn("main").NumParams)
				for i := range args {
					args[i] = int64(sentinel)
				}
				if _, err := pr.KuCall(id, args...); err != nil {
					if _, err := pr.KuCall(id, args...); !errors.Is(err, ErrKuDead) {
						t.Errorf("call after a failed call: err = %v; want ErrKuDead", err)
					}
				} else {
					_, _ = pr.KuCall(id, args...)
				}
			}
			pspec := kprobe.Spec{Tracepoint: kprobe.TpSyscallExit, Source: src, Entry: "main", Maps: probeMaps}
			if id, err := pr.ProbeAttach(pspec); err == nil {
				pr.Getpid()
				buf, err := pr.Mmap(1 << 16)
				if err != nil {
					return err
				}
				if _, err := pr.ProbeRead(id, buf); err != nil {
					t.Errorf("probe_read of an attached program: %v", err)
				}
			}
			if pid := pr.Getpid(); pid != p.PID {
				t.Errorf("getpid after admission = %d; want %d", pid, p.PID)
			}
			got, err := k.Ku.AS.ReadU64(sentinel)
			if err != nil {
				return err
			}
			if got != magic {
				t.Errorf("extension reached the shared kucode space: sentinel = %#x", got)
			}
			return nil
		})
		if err := m.Run(); err != nil {
			t.Fatalf("source input crashed the kernel: %v", err)
		}
		if p.Err() != nil {
			t.Fatalf("process did not complete: %v", p.Err())
		}
	})
}
