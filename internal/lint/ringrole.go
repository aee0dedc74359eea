package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ringPath is the import path of the audited SPSC transport package whose
// producer/consumer discipline the analyzer enforces.
const ringPath = "repro/internal/ring"

// The //countq:role annotation contract: internal/ring's contract is
// positional — exactly one goroutine may call the producer-side methods
// of a ring and exactly one the consumer-side methods — but nothing in
// the type system records which functions run on which side, so a
// misplaced Push or Pop compiles, passes vet, and corrupts the ring only
// under a scheduling -race may never produce. A function that can reach
// a ring primitive (directly or through unannotated same-package
// callees, interface calls CHA-resolved) must therefore declare its side
// with //countq:role=producer or //countq:role=consumer; the analyzer
// verifies the declared side against the primitives actually reachable.
// Annotated functions are traversal boundaries: a consumer-side function
// may call a producer-annotated one (e.g. the pump settling grants into
// a different ring than the lanes it sweeps) — each annotated function
// is checked against its own role, and the pivot between rings is
// exactly what the annotation documents.
//
// The analyzer also enforces the park protocol on Event/Lanes: a receive
// from WakeChan() must be preceded, in the same function, by a Prepare
// call with at least one statement between them — the mandatory re-check
// for work published before the parked flag became visible. Parking
// without Prepare (or immediately after it) loses wakeups.
var RingRoleAnalyzer = &Analyzer{
	Name: "ringrole",
	Doc: "functions reaching ring.SPSC/Mailbox/Lanes/Event producer-only methods (Push, Post, Wake, WakeMailbox) or " +
		"consumer-only methods (Pop, Peek, DrainTo, Take, Read, Snapshot, Mailboxes, Claim, Prepare, WakeChan, Unpark) must carry a " +
		"matching //countq:role=producer|consumer annotation; mixed or unannotated reachability " +
		"is flagged, and WakeChan receives must be dominated by Prepare with a re-check between",
	Run: runRingRole,
}

// ringMethodRoles hardcodes each primitive's side. The names are
// Type.Method on internal/ring's exported types.
var ringMethodRoles = map[string]string{
	"SPSC.Push":         "producer",
	"Mailbox.Post":      "producer",
	"Event.Wake":        "producer",
	"Lanes.Wake":        "producer",
	"Lanes.WakeMailbox": "producer",

	"SPSC.Pop":        "consumer",
	"SPSC.Peek":       "consumer",
	"SPSC.DrainTo":    "consumer",
	"SPSC.Len":        "", // racy-read; legal from either side, exact from the consumer
	"Mailbox.Take":    "consumer",
	"Mailbox.Read":    "consumer",
	"Mailbox.Taken":   "", // the consumer's own word, which the producer reads to post again
	"Event.Prepare":   "consumer",
	"Event.WakeChan":  "consumer",
	"Event.Unpark":    "consumer",
	"Lanes.Snapshot":  "consumer",
	"Lanes.Claim":     "consumer",
	"Lanes.Mailboxes": "consumer",
	"Lanes.Prepare":   "consumer",
	"Lanes.WakeChan":  "consumer",
	"Lanes.Unpark":    "consumer",
}

// ringPrimitive classifies fn as one of internal/ring's role-carrying
// methods, returning its display name and side.
func ringPrimitive(fn *types.Func) (name, role string, ok bool) {
	fn = origin(fn)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != ringPath {
		return "", "", false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil {
		return "", "", false
	}
	recv := sig.Recv().Type()
	if p, okPtr := recv.(*types.Pointer); okPtr {
		recv = p.Elem()
	}
	named, okNamed := recv.(*types.Named)
	if !okNamed {
		return "", "", false
	}
	name = named.Obj().Name() + "." + fn.Name()
	role, known := ringMethodRoles[name]
	if !known || role == "" {
		return "", "", false
	}
	return "ring." + name, role, true
}

func runRingRole(pass *Pass) error {
	if importedPkg(pass.Pkg, ringPath) == nil {
		return nil // package does not touch the transport
	}
	g := packageCallGraph(pass)

	// Reachable-role summaries: R(f) maps role -> witness primitive name,
	// unioned over f's callees, stopping at role-annotated callees (each
	// is checked under its own annotation). Memoized with a visiting set
	// so recursion terminates on cycles.
	reach := make(map[*types.Func]map[string]string)
	visiting := make(map[*types.Func]bool)
	var reachOf func(fn *types.Func) map[string]string
	reachOf = func(fn *types.Func) map[string]string {
		fn = origin(fn)
		if r, ok := reach[fn]; ok {
			return r
		}
		if visiting[fn] {
			return nil
		}
		visiting[fn] = true
		r := make(map[string]string)
		for _, callee := range g.callees(fn) {
			if name, role, ok := ringPrimitive(callee); ok {
				r[role] = name
				continue
			}
			if g.decls[callee] == nil {
				continue // cross-package: blind, and ring itself is fully classified above
			}
			if g.roleAnnotated(callee) {
				continue // boundary: callee is checked under its own role
			}
			for role, name := range reachOf(callee) {
				r[role] = name
			}
		}
		delete(visiting, fn)
		reach[fn] = r
		return r
	}

	// Functions whose declarations carry the directive, for the
	// misplaced-directive sweep below.
	attached := make(map[*ast.Comment]bool)
	type declInfo struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	var ordered []declInfo
	for fn, fd := range g.decls {
		ordered = append(ordered, declInfo{fn, fd})
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].fd.Pos() < ordered[j].fd.Pos() })

	for _, d := range ordered {
		fn, fd := d.fn, d.fd
		role, bad, annotated := roleOf(fd)
		if annotated && fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), roleDirectivePrefix) {
					attached[c] = true
				}
			}
		}
		if annotated && bad != "" {
			pass.Reportf(fd.Pos(), "%s: %s", fd.Name.Name, bad)
			continue
		}

		// Direct primitive calls, with their sites.
		type site struct {
			pos  token.Pos
			name string
			role string
		}
		var direct []site
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pass.Info, call); callee != nil {
				if name, r, ok := ringPrimitive(callee); ok {
					direct = append(direct, site{call.Pos(), name, r})
				}
			}
			return true
		})
		transitive := make(map[string]string)
		for _, callee := range g.callees(fn) {
			if _, _, ok := ringPrimitive(callee); ok {
				continue // counted as direct above
			}
			if g.decls[callee] == nil || g.roleAnnotated(callee) {
				continue
			}
			for r, name := range reachOf(callee) {
				transitive[r] = name
			}
		}

		if selfName, selfRole, isPrim := ringPrimitive(fn); isPrim {
			// ring's own primitives: the annotation, when present, must
			// restate the hardcoded side.
			if annotated && role != selfRole {
				pass.Reportf(fd.Pos(), "%s is the %s-side primitive %s but is annotated //countq:role=%s", fd.Name.Name, selfRole, selfName, role)
			}
			continue
		}

		switch {
		case annotated:
			opposite := "consumer"
			if role == "consumer" {
				opposite = "producer"
			}
			for _, s := range direct {
				if s.role == opposite {
					pass.Reportf(s.pos, "%s is annotated //countq:role=%s but calls the %s-only method %s (one side of an SPSC ring must never touch the other's cursor)", fd.Name.Name, role, opposite, s.name)
				}
			}
			if name, ok := transitive[opposite]; ok {
				pass.Reportf(fd.Pos(), "%s is annotated //countq:role=%s but reaches the %s-only method %s through unannotated callees (annotate the callee chain or move the call behind a role boundary)", fd.Name.Name, role, opposite, name)
			}
			if len(direct) == 0 && len(transitive) == 0 {
				pass.Reportf(fd.Pos(), "%s carries //countq:role=%s but reaches no ring producer/consumer method — dead annotation (drop it, or it will mask a future violation)", fd.Name.Name, role)
			}
		default:
			roles := make(map[string]string)
			for _, s := range direct {
				roles[s.role] = s.name
			}
			for r, name := range transitive {
				roles[r] = name
			}
			switch {
			case len(roles) == 2:
				pass.Reportf(fd.Pos(), "%s reaches both producer-only (%s) and consumer-only (%s) ring methods with no //countq:role annotation — mixed-role access on one ring races its cursors; split the function along the role boundary", fd.Name.Name, roles["producer"], roles["consumer"])
			case len(roles) == 1:
				for r, name := range roles {
					pos := fd.Pos()
					if len(direct) > 0 {
						pos = direct[0].pos
					}
					pass.Reportf(pos, "%s reaches the %s-only ring method %s but carries no //countq:role annotation (declare //countq:role=%s so the side is auditable)", fd.Name.Name, r, name, r)
				}
			}
		}

		checkParkDiscipline(pass, fd)
	}

	// A role directive anywhere but a function's doc comment is dead.
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), roleDirectivePrefix) && !attached[c] {
					pass.Reportf(c.Pos(), "misplaced //countq:role: the directive must be in a function's doc comment")
				}
			}
		}
	}
	return nil
}

// checkParkDiscipline enforces Prepare-dominates-park with a re-check
// between: every receive from a WakeChan() result needs a lexically
// preceding Prepare call in the same function, and at least one
// statement strictly between the Prepare and the receive (the work
// re-check that makes the park lossless).
func checkParkDiscipline(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	// Track ch := x.WakeChan() bindings so `<-ch` counts as a park.
	wakeChans := make(map[types.Object]bool)
	var prepares []token.Pos // End() of each Prepare call
	type recvSite struct{ pos token.Pos }
	var recvs []recvSite
	var stmts []ast.Stmt
	isWakeChanCall := func(e ast.Expr) bool {
		call, ok := unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return false
		}
		name, _, ok := ringPrimitive(fn)
		return ok && strings.HasSuffix(name, ".WakeChan")
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch x := n.(type) {
		case ast.Stmt:
			stmts = append(stmts, x)
			if a, ok := x.(*ast.AssignStmt); ok && len(a.Lhs) == len(a.Rhs) {
				for i, rhs := range a.Rhs {
					if isWakeChanCall(rhs) {
						if id, ok := a.Lhs[i].(*ast.Ident); ok {
							if obj := info.Defs[id]; obj != nil {
								wakeChans[obj] = true
							} else if obj := info.Uses[id]; obj != nil {
								wakeChans[obj] = true
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, x); fn != nil {
				if name, _, ok := ringPrimitive(fn); ok && strings.HasSuffix(name, ".Prepare") {
					prepares = append(prepares, x.End())
				}
			}
		case *ast.UnaryExpr:
			if x.Op != token.ARROW {
				return true
			}
			operand := unparen(x.X)
			if isWakeChanCall(operand) {
				recvs = append(recvs, recvSite{x.Pos()})
				return true
			}
			if id, ok := operand.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && wakeChans[obj] {
					recvs = append(recvs, recvSite{x.Pos()})
				}
			}
		}
		return true
	})
	for _, rc := range recvs {
		var prep token.Pos // latest Prepare ending before the receive
		for _, p := range prepares {
			if p < rc.pos && p > prep {
				prep = p
			}
		}
		if prep == token.NoPos {
			pass.Reportf(rc.pos, "%s parks on WakeChan with no preceding Prepare call — the parked flag is never set, so a producer's Wake is skipped and this wait can hang", fd.Name.Name)
			continue
		}
		between := false
		for _, s := range stmts {
			if s.Pos() > prep && s.End() < rc.pos {
				between = true
				break
			}
		}
		if !between {
			pass.Reportf(rc.pos, "%s parks on WakeChan immediately after Prepare with no re-check between — work published before the parked flag became visible produced no signal, so this wait can miss it; re-check the work source (and Unpark) between Prepare and the receive", fd.Name.Name)
		}
	}
}
