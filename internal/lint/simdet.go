package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimDetAnalyzer proves the simulator's determinism claim structurally:
// the engine's correctness story is byte-identical golden traces, which
// holds only if nothing reachable from the round loop consults a clock,
// an unseeded random source, map iteration order, or the goroutine
// scheduler. Roots are Network.Step (when analyzing internal/sim itself)
// and every method of an in-package type implementing the protocol
// surfaces — sim.Protocol/Ticker Start/Deliver/Tick and
// sim.BridgeProtocol's Issue — so each protocol package is audited where
// its code lives. Traversal follows
// the CHA call graph and stops at //countq:role-annotated functions:
// the role annotation marks the boundary where the deterministic core
// hands a result to the concurrent transport (grant rings, completion
// channels), and the transport's own discipline is ringrole's job.
//
// Banned inside the deterministic region:
//
//   - time.Now/Since/Until/Sleep/After/AfterFunc/Tick/NewTimer/NewTicker
//   - package-level math/rand and math/rand/v2 calls (the global source
//     is seeded per process; methods on an explicitly seeded *rand.Rand
//     are fine — the seed is part of the trace's identity)
//   - ranging over a map (iteration order is deliberately randomized)
//   - go statements, select statements, channel sends and receives
//     (scheduling order would leak into the trace)
var SimDetAnalyzer = &Analyzer{
	Name: "simdet",
	Doc: "functions reachable from Network.Step and the protocol methods " +
		"(Protocol/BridgeProtocol Start/Issue/Deliver/Tick) must be deterministic: no clock " +
		"reads, no unseeded rand, no map iteration, no go/select/channel operations — golden " +
		"traces must stay byte-identical by construction",
	Run: runSimDet,
}

// simRootSpecs maps each sim interface to the method names that enter
// the deterministic region through it.
var simRootSpecs = []struct {
	iface   string
	methods []string
}{
	{"Protocol", []string{"Start", "Deliver"}},
	{"Ticker", []string{"Tick"}},
	{"Scheduler", []string{"PendingUntil"}},
	{"BridgeProtocol", []string{"Issue"}},
}

func runSimDet(pass *Pass) error {
	sim := importedPkg(pass.Pkg, simPath)
	if sim == nil {
		return nil
	}
	g := packageCallGraph(pass)

	// Collect roots: interface-implementation methods declared in this
	// package, plus the engine's own Step when analyzing internal/sim.
	roots := make(map[*types.Func]string)
	for _, spec := range simRootSpecs {
		iface := scopeInterface(sim, spec.iface)
		if iface == nil {
			continue
		}
		for _, impl := range implementations(pass.Pkg, iface) {
			for _, m := range spec.methods {
				fn := methodOn(pass.Pkg, impl, m)
				if fn == nil || g.decls[fn] == nil {
					continue
				}
				if _, ok := roots[fn]; !ok {
					roots[fn] = implName(impl) + "." + m + " (sim." + spec.iface + ")"
				}
			}
		}
	}
	if pass.Pkg.Path() == simPath {
		if nw, ok := pass.Pkg.Scope().Lookup("Network").(*types.TypeName); ok {
			if step := methodOn(pass.Pkg, types.NewPointer(nw.Type()), "Step"); step != nil && g.decls[step] != nil {
				roots[step] = "Network.Step"
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// BFS the deterministic region: in-package declared functions
	// reachable from a root without crossing a //countq:role boundary.
	region := make(map[*types.Func]string) // fn -> root label
	var queue []*types.Func
	for fn, label := range roots {
		if g.roleAnnotated(fn) {
			continue
		}
		region[fn] = label
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range g.callees(fn) {
			if g.decls[callee] == nil {
				continue // cross-package: no body here; its own package audits it
			}
			if _, seen := region[callee]; seen {
				continue
			}
			if g.roleAnnotated(callee) {
				continue // transport boundary
			}
			region[callee] = region[fn]
			queue = append(queue, callee)
		}
	}

	for fn, root := range region {
		checkDeterministic(pass, g.decls[fn], root)
	}
	return nil
}

// nondetTimeFuncs are the package-level time functions that read the
// wall clock or arm runtime timers.
var nondetTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// checkDeterministic flags every nondeterministic construct in one
// declaration of the region.
func checkDeterministic(pass *Pass, fd *ast.FuncDecl, root string) {
	if fd == nil {
		return
	}
	name := fd.Name.Name
	info := pass.Info
	ast.Inspect(fd, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "%s: go statement in a function reachable from %s — goroutine interleaving would leak scheduling order into the golden trace", name, root)
		case *ast.SelectStmt:
			pass.Reportf(x.Pos(), "%s: select in a function reachable from %s — case choice is scheduler-dependent, so the trace stops being reproducible", name, root)
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "%s: channel send in a function reachable from %s — channel timing is scheduler-dependent; hand results across the //countq:role boundary instead", name, root)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pass.Reportf(x.Pos(), "%s: channel receive in a function reachable from %s — channel timing is scheduler-dependent; hand results across the //countq:role boundary instead", name, root)
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "%s: map iteration in a function reachable from %s — Go randomizes map order per run, so the trace diverges; iterate a sorted or index-ordered slice instead", name, root)
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && nondetTimeFuncs[fn.Name()] {
					pass.Reportf(x.Pos(), "%s: time.%s in a function reachable from %s — the wall clock is nondeterministic; simulated time must come from the round counter", name, fn.Name(), root)
				}
			case "math/rand", "math/rand/v2":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					pass.Reportf(x.Pos(), "%s: %s.%s in a function reachable from %s — the global source's sequence is process-wide state; draw from an explicitly seeded *rand.Rand owned by the model", name, fn.Pkg().Name(), fn.Name(), root)
				}
			}
		}
		return true
	})
}
