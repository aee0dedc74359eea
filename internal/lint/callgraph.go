package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// The interprocedural core: a CHA-style call graph over one typechecked
// package, shared by the concurrency-protocol analyzers (ringrole,
// simdet). Per-function summaries are cached per package so the two
// analyzers pay for one build.
//
// Resolution rules, chosen for the soundness direction the analyzers
// need (never miss a reachable callee; over-approximating is fine):
//
//   - Static calls resolve to the callee's *types.Func (Origin-
//     normalized, so instantiations of a generic function collapse onto
//     its declaration).
//   - Interface-method calls resolve, class-hierarchy-analysis style, to
//     every package-scope named type (or its pointer) implementing the
//     interface — the callee set any devirtualization could produce.
//   - Function literals are folded into the enclosing declared function:
//     a closure's calls are its host's calls. A closure that escapes may
//     in truth run elsewhere, which only widens the host's summary.
//   - A bare reference to a declared function (passed as a value, stored
//     in a struct) is an edge too: the reference can be called wherever
//     it flows, and the analyzers' questions ("does anything this
//     function can trigger touch a ring?") want that conservatism.
type callGraph struct {
	pkg *types.Package
	// edges maps each declared function to its callees in first-call
	// order (deduplicated). Keys and values are Origin-normalized.
	edges map[*types.Func][]*types.Func
	// decls indexes the package's function declarations.
	decls map[*types.Func]*ast.FuncDecl
}

var (
	callGraphMu    sync.Mutex
	callGraphCache = map[*types.Package]*callGraph{}
)

// packageCallGraph builds (or returns the cached) call graph for the
// pass's package.
func packageCallGraph(pass *Pass) *callGraph {
	callGraphMu.Lock()
	defer callGraphMu.Unlock()
	if g, ok := callGraphCache[pass.Pkg]; ok {
		return g
	}
	g := buildCallGraph(pass)
	callGraphCache[pass.Pkg] = g
	return g
}

// origin collapses an instantiated function or method onto its generic
// declaration, the identity funcDecls indexes by.
func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		pkg:   pass.Pkg,
		edges: make(map[*types.Func][]*types.Func),
		decls: funcDecls(pass.Files, pass.Info),
	}
	impls := implementerIndex(pass.Pkg)
	for fn, fd := range g.decls {
		g.edges[fn] = summarize(pass, fd, impls)
	}
	return g
}

// summarize collects one declaration's callee set: static callees,
// CHA-resolved interface callees, and referenced function values.
// Function literals inside the declaration are folded in.
func summarize(pass *Pass, fd *ast.FuncDecl, impls []types.Type) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		fn = origin(fn)
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		out = append(out, fn)
	}
	// Identify call positions so bare references are distinguishable
	// from the Fun of a CallExpr (counted once, as a call).
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(fd, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(fd, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, x); fn != nil {
				if isInterfaceMethod(fn) {
					for _, impl := range chaResolve(pass.Pkg, fn, impls) {
						add(impl)
					}
				} else {
					add(fn)
				}
			}
		case *ast.Ident:
			if callFuns[ast.Expr(x)] {
				return true
			}
			if fn, ok := pass.Info.Uses[x].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
				add(fn)
			}
		case *ast.SelectorExpr:
			if callFuns[ast.Expr(x)] {
				return true
			}
			if fn, ok := pass.Info.Uses[x.Sel].(*types.Func); ok {
				// Method value or qualified function reference.
				if isInterfaceMethod(fn) {
					for _, impl := range chaResolve(pass.Pkg, fn, impls) {
						add(impl)
					}
				} else {
					add(fn)
				}
			}
		}
		return true
	})
	return out
}

// isInterfaceMethod reports whether fn is declared on an interface (its
// concrete target is unknown statically).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// implementerIndex lists every package-scope named (non-interface) type
// as a pointer type, the receiver form that carries a type's full method
// set. Built once per graph.
func implementerIndex(pkg *types.Package) []types.Type {
	var out []types.Type
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		out = append(out, types.NewPointer(named))
	}
	return out
}

// chaResolve finds the in-package concrete methods an interface-method
// call can dispatch to: for each package-scope type implementing the
// method's interface, the correspondingly named method.
func chaResolve(pkg *types.Package, ifaceMethod *types.Func, impls []types.Type) []*types.Func {
	recv := ifaceMethod.Type().(*types.Signature).Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, t := range impls {
		if !types.Implements(t, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, ifaceMethod.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, origin(fn))
		}
	}
	return out
}

// callees returns fn's summary (nil for functions without a declaration
// in this package).
func (g *callGraph) callees(fn *types.Func) []*types.Func {
	return g.edges[origin(fn)]
}

// implementations lists the package-scope named types (as pointers)
// implementing iface, paired with the resolver analyzers use to find
// specific method declarations on them.
func implementations(pkg *types.Package, iface *types.Interface) []types.Type {
	if iface == nil {
		return nil
	}
	var out []types.Type
	for _, t := range implementerIndex(pkg) {
		if types.Implements(t, iface) {
			out = append(out, t)
		}
	}
	return out
}

// methodOn resolves a named method on a (possibly pointer) type to its
// Origin-normalized *types.Func, or nil.
func methodOn(pkg *types.Package, t types.Type, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	fn, _ := obj.(*types.Func)
	return origin(fn)
}

// roleDirectivePrefix is the shared directive marker for the role
// annotations ringrole verifies and simdet/ringrole traversal stops at.
const roleDirectivePrefix = "//countq:role="

// roleOf parses a declaration's //countq:role directive. ok reports
// whether any role directive is present; bad carries the complaint for a
// malformed one.
func roleOf(fd *ast.FuncDecl) (role string, bad string, ok bool) {
	if fd == nil || fd.Doc == nil {
		return "", "", false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, roleDirectivePrefix) {
			continue
		}
		role = strings.TrimPrefix(text, roleDirectivePrefix)
		switch role {
		case "producer", "consumer":
			return role, "", true
		}
		return "", fmt.Sprintf("unknown //countq:role value %q (want producer or consumer)", role), true
	}
	return "", "", false
}

// roleAnnotated reports whether fn's declaration carries a well-formed
// role directive — the traversal boundary between ring roles and between
// the deterministic sim core and its transport edges.
func (g *callGraph) roleAnnotated(fn *types.Func) bool {
	fd := g.decls[origin(fn)]
	if fd == nil {
		return false
	}
	_, bad, ok := roleOf(fd)
	return ok && bad == ""
}
