package klint

import (
	"go/types"
	"sort"
	"strings"
)

// Hookpure proves the cost-free observability contract at compile
// time: every implementation of the kernel's one structural observer
// seam, kernel.Observer, and every kperf probe the simulated-state
// layer invokes, together with everything they transitively call, can
// never reach a cycle-charging or kernel-state-mutating API. The
// dynamic bit-identity gate (observers on vs off) *measures* this
// property per run; hookpure makes it a property of the program text,
// closing the dynamic-dispatch loophole the layering table cannot see
// (a hook smuggling a kernel-owned closure or interface value and
// calling it).
//
// Roots:
//   - every method of module types implementing kernel.Observer
//     (ktrace, kflight, trace.Recorder, kperf.NopObserver),
//   - every kperf function called directly from the simulated-state
//     layer (the probe seam surface: attribution, tracepoints, span
//     bookkeeping threaded through kernel, sys, mem, disk, vfs, cosy,
//     kefence, kmon, klog).
//
// Forbidden: any function or literal defined in a simulated-state
// package (kernel, sys, mem, disk, vfs*, cosy*, and the rest of
// hookpureBannedPkgs), plus the sim.Clock mutators. kperf, ktrace,
// kflight, trace, sysgraph and sim accessors are the hooks' legitimate
// world.
var Hookpure = &Analyzer{
	Name:      "hookpure",
	Doc:       "hook seam implementations can never charge cycles or mutate kernel state, transitively",
	RunModule: runHookpure,
}

// hookpureSeams are the cost-free hook interfaces, looked up in
// repro/internal/kernel.
var hookpureSeams = []string{"Observer"}

// hookpureProbeCallers is the simulated-state layer whose direct
// calls into kperf define the probe-seam root set.
var hookpureProbeCallers = map[string]bool{
	"repro/internal/kernel":    true,
	"repro/internal/sys":       true,
	"repro/internal/mem":       true,
	"repro/internal/disk":      true,
	"repro/internal/vfs":       true,
	"repro/internal/cosy/kext": true,
	"repro/internal/kefence":   true,
	"repro/internal/kmon":      true,
	"repro/internal/klog":      true,
}

// hookpureBannedPkgs: reaching any function defined in these packages
// from a hook root is a violation — they own simulated state or
// charge cycles.
var hookpureBannedPkgs = map[string]bool{
	"repro/internal/alloc":      true,
	"repro/internal/bench":      true,
	"repro/internal/core":       true,
	"repro/internal/cosy/cc":    true,
	"repro/internal/cosy/kext":  true,
	"repro/internal/cosy/lang":  true,
	"repro/internal/cosy/lib":   true,
	"repro/internal/disk":       true,
	"repro/internal/kcheck":     true,
	"repro/internal/kefence":    true,
	"repro/internal/kernel":     true,
	"repro/internal/kgcc":       true,
	"repro/internal/klog":       true,
	"repro/internal/kmon":       true,
	"repro/internal/kprobe":     true,
	"repro/internal/mem":        true,
	"repro/internal/minic":      true,
	"repro/internal/ring":       true,
	"repro/internal/seg":        true,
	"repro/internal/splay":      true,
	"repro/internal/sys":        true,
	"repro/internal/vfs":        true,
	"repro/internal/vfs/btfs":   true,
	"repro/internal/vfs/memfs":  true,
	"repro/internal/vfs/wrapfs": true,
	"repro/internal/workload":   true,
}

// hookpureBannedFns are forbidden members of otherwise-allowed
// packages, as "pkgpath.FuncName" or "pkgpath.(Type).Method".
var hookpureBannedFns = map[string]bool{
	"repro/internal/sim.(Clock).Advance":   true,
	"repro/internal/sim.(Clock).AdvanceTo": true,
}

// hookpureAllowedFns are members of banned packages that hooks may
// reach: read-only accessors with no charging or mutation, each
// audited by eye and covered dynamically by the bit-identity gate
// (identical simulated cycles with observability on vs off would
// break if any of these charged or mutated). They are treated as
// leaves — the proof trusts them and does not traverse their bodies.
// Every kperf gauge is a variable, so no gauge read needs an entry.
var hookpureAllowedFns = map[string]bool{
	// Syscall-number formatting for exporter labels.
	"repro/internal/sys.Count":       true,
	"repro/internal/sys.(Nr).String": true,
}

func runHookpure(pass *Pass) error {
	m := pass.Module
	kernelPkg := m.ByPath["repro/internal/kernel"]
	if kernelPkg == nil {
		return nil // nothing to prove (fixture without a kernel)
	}
	g := buildCallGraph(m)

	// Roots 1: seam implementations.
	type root struct {
		node *cgFunc
		why  string
	}
	var roots []root
	for _, seam := range hookpureSeams {
		tn, ok := kernelPkg.Types.Scope().Lookup(seam).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, named := range g.named {
			var recv types.Type = named
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			for i := 0; i < iface.NumMethods(); i++ {
				name := iface.Method(i).Name()
				obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), name)
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				node := g.nodes[fn.Origin()]
				if node == nil || node.pkg == nil {
					continue // no body in module
				}
				roots = append(roots, root{node, "implements kernel." + seam})
			}
		}
	}

	// Roots 2: kperf functions invoked from the simulated-state layer.
	probeRoots := map[*cgFunc]bool{}
	for _, n := range g.allNodes() {
		if n.pkg == nil || !hookpureProbeCallers[n.pkg.ImportPath] {
			continue
		}
		for _, c := range n.callees {
			if c.fn != nil && c.fn.Pkg() != nil && c.fn.Pkg().Path() == "repro/internal/kperf" {
				if g.nodes[c.fn.Origin()] != nil && c.pkg != nil && !probeRoots[c] {
					probeRoots[c] = true
					roots = append(roots, root{c, "kperf probe called from " + n.pkg.ImportPath})
				}
			}
		}
	}

	sort.Slice(roots, func(i, j int) bool {
		if roots[i].node.desc != roots[j].node.desc {
			return roots[i].node.desc < roots[j].node.desc
		}
		return roots[i].why < roots[j].why
	})

	reported := map[string]bool{}
	for _, r := range roots {
		for _, hit := range reachBanned(r.node) {
			key := r.node.desc + "->" + hit.node.desc
			if reported[key] {
				continue
			}
			reported[key] = true
			pos := r.node.fn.Pos()
			pass.Reportf(pos, "%s (%s) can reach %s via %s; hook seams must stay cost-free and state-free",
				r.node.desc, r.why, hit.node.desc, strings.Join(hit.chain, " -> "))
		}
	}
	return nil
}

// fnKey renders a declared function's identity as
// "pkgpath.FuncName" or "pkgpath.(Type).Method" — the naming scheme
// of the allowed/banned tables. Empty for literals.
func fnKey(n *cgFunc) string {
	if n.fn == nil || n.fn.Pkg() == nil {
		return ""
	}
	pkgPath := n.fn.Pkg().Path()
	name := pkgPath + "." + n.fn.Name()
	if sig, ok := n.fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recvType := sig.Recv().Type()
		if ptr, ok := recvType.(*types.Pointer); ok {
			recvType = ptr.Elem()
		}
		if named, ok := recvType.(*types.Named); ok {
			name = pkgPath + ".(" + named.Obj().Name() + ")." + n.fn.Name()
		}
	}
	return name
}

// allowedNode: explicitly-audited read-only accessors; treated as
// leaves by the traversal.
func allowedNode(n *cgFunc) bool {
	return hookpureAllowedFns[fnKey(n)]
}

// bannedNode: declared functions in simulated-state packages, plus
// the explicit banned list. Function *literals* are never banned by
// location alone — gauge/tracepoint closures registered with kperf
// legitimately live next to the state they read — but the traversal
// continues into their bodies, so a closure that calls a charging or
// mutating API is still caught through the chain.
func bannedNode(n *cgFunc) bool {
	if n.fn == nil || n.fn.Pkg() == nil {
		return false
	}
	if hookpureBannedPkgs[n.fn.Pkg().Path()] {
		return true
	}
	return hookpureBannedFns[fnKey(n)]
}

type bannedHit struct {
	node  *cgFunc
	chain []string
}

// reachBanned BFSes from root and returns every banned node reached,
// each with the call chain that reaches it. Traversal order follows
// edge insertion order (deterministic: AST order).
func reachBanned(rootNode *cgFunc) []bannedHit {
	type qe struct {
		n      *cgFunc
		parent *qe
	}
	var hits []bannedHit
	visited := map[*cgFunc]bool{rootNode: true}
	queue := []*qe{{n: rootNode}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range cur.n.callees {
			if visited[c] {
				continue
			}
			visited[c] = true
			if allowedNode(c) {
				continue // audited read-only leaf
			}
			e := &qe{n: c, parent: cur}
			if bannedNode(c) {
				var chain []string
				for x := e; x != nil; x = x.parent {
					chain = append([]string{x.n.desc}, chain...)
				}
				if len(chain) > 8 {
					chain = append(chain[:4], append([]string{"..."}, chain[len(chain)-3:]...)...)
				}
				hits = append(hits, bannedHit{node: c, chain: chain})
				continue // no need to traverse past a violation
			}
			queue = append(queue, e)
		}
	}
	return hits
}
