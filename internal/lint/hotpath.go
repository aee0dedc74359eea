package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// The //countq:hotpath annotation contract: a function whose doc comment
// carries the directive is a steady-state hot path — a laneRunner per-op
// method, an shm Inc/Enqueue/Submit fast path, a combiner sweep — and must
// stay free of heap-allocating constructs. The analyzer is the
// compile-time twin of countq/alloc_test.go's AllocsPerRun gates: the
// runtime gate proves one workload shape allocates nothing, the analyzer
// proves no code path reintroduces an allocating construct at all.
//
// Banned inside an annotated function:
//
//   - closures (func literals capture by reference and escape)
//   - defer (the deferred record escapes on the unmeasured path variants)
//   - go statements (a goroutine launch allocates its stack)
//   - make/new of any kind, and &T{...} composite-literal addresses
//   - composite literals escaping into interface-typed contexts (boxing)
//   - &x of a local variable or parameter in an interface-typed context
//     (pool.Put(&local)): the pointer escapes, so x moves to the heap
//   - map iteration (range over a map allocates its iterator)
//   - fmt.* calls, except feeding a return statement or a panic — the
//     cold error paths
//   - spread appends (append(s, v...) grows by a runtime-sized batch, so
//     the reserved-capacity argument that legitimizes plain appends does
//     not cover it)
//   - string concatenation that is not constant-folded (each + allocates
//     the joined result), with the same return/panic exemption as fmt
//   - clock reads (time.Now / time.Since) beyond the annotated budget:
//     `//countq:hotpath clocks=N` declares the audited number of call
//     sites (default 1), so extra reads are flagged until re-audited
//
// Plain single-element appends are allowed: the hot paths append into
// capacity reserved by the (deliberately unannotated) amortized helpers
// reserve/grow.
const hotPathDirective = "//countq:hotpath"

// HotPathAnalyzer enforces the //countq:hotpath annotation contract.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //countq:hotpath must not contain heap-allocating constructs " +
		"(closures, defer, make, interface-escaping composites or local addresses, map ranges, non-cold fmt, " +
		"spread appends, non-constant string concatenation) or clock reads beyond the " +
		"clocks=N budget",
	Run: runHotPath,
}

// hotPathBudget parses the directive's arguments. ok is false when the
// doc group carries no countq:hotpath directive.
func hotPathBudget(doc *ast.CommentGroup) (clocks int, bad string, ok bool) {
	if doc == nil {
		return 0, "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text != hotPathDirective && !strings.HasPrefix(text, hotPathDirective+" ") {
			continue
		}
		clocks = 1
		for _, arg := range strings.Fields(strings.TrimPrefix(text, hotPathDirective)) {
			val, found := strings.CutPrefix(arg, "clocks=")
			if !found {
				return 0, fmt.Sprintf("unknown //countq:hotpath argument %q (supported: clocks=N)", arg), true
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return 0, fmt.Sprintf("malformed //countq:hotpath clock budget %q (want clocks=N, N ≥ 0)", arg), true
			}
			clocks = n
		}
		return clocks, "", true
	}
	return 0, "", false
}

func runHotPath(pass *Pass) error {
	// Directives attached to function declarations define hot paths; the
	// same directive anywhere else is dead annotation and flagged, so a
	// mis-placed comment cannot silently disable the gate.
	attached := make(map[*ast.Comment]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			clocks, bad, ok := hotPathBudget(fd.Doc)
			if !ok {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), hotPathDirective) {
					attached[c] = true
				}
			}
			if bad != "" {
				pass.Reportf(fd.Pos(), "%s: %s", fd.Name.Name, bad)
				continue
			}
			if fd.Body == nil {
				pass.Reportf(fd.Pos(), "%s: //countq:hotpath on a bodyless declaration", fd.Name.Name)
				continue
			}
			checkHotFunc(pass, fd, clocks)
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), hotPathDirective) && !attached[c] {
					pass.Reportf(c.Pos(), "misplaced //countq:hotpath: the directive must be in a function's doc comment")
				}
			}
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl, clockBudget int) {
	name := fd.Name.Name
	info := pass.Info
	clockSites := 0
	// Walk the declaration (not just the body) so return statements see
	// the enclosing FuncDecl on the stack when resolving result types.
	walkStack(fd, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "%s: closure in a //countq:hotpath function (func literals capture by reference and escape)", name)
			return false
		case *ast.DeferStmt:
			pass.Reportf(x.Pos(), "%s: defer in a //countq:hotpath function (the deferred record allocates)", name)
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "%s: go statement in a //countq:hotpath function (a goroutine launch allocates)", name)
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "%s: map iteration in a //countq:hotpath function (the hidden iterator allocates)", name)
				}
			}
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				break
			}
			switch operand := unparen(x.X).(type) {
			case *ast.CompositeLit:
				pass.Reportf(operand.Pos(), "%s: &composite literal in a //countq:hotpath function escapes to the heap", name)
			case *ast.Ident:
				if !isLocalVar(info.Uses[operand]) {
					break
				}
				if iface := interfaceContext(info, x, stack); iface != "" {
					pass.Reportf(x.Pos(), "%s: &%s escapes to interface %s in a //countq:hotpath function (the local variable moves to the heap)", name, operand.Name, iface)
				}
			}
		case *ast.CompositeLit:
			if iface := interfaceContext(info, x, stack); iface != "" {
				pass.Reportf(x.Pos(), "%s: composite literal escapes to interface %s in a //countq:hotpath function (boxing allocates)", name, iface)
			}
		case *ast.CallExpr:
			checkHotCall(pass, name, x, stack, clockBudget, &clockSites)
		case *ast.BinaryExpr:
			checkHotConcat(pass, name, x, stack)
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 {
				if t := info.TypeOf(x.Lhs[0]); t != nil && isStringType(t) && !coldPath(stack) {
					pass.Reportf(x.Pos(), "%s: string += concatenation in a //countq:hotpath function allocates the joined result (build into a reserved []byte instead)", name)
				}
			}
		}
		return true
	})
}

// checkHotConcat flags a runtime string concatenation. Constant-folded
// expressions cost nothing, a chain reports only at its outermost +, and
// the return/panic exemption matches fmt's: taking the error path ends
// the measured iteration anyway.
func checkHotConcat(pass *Pass, name string, x *ast.BinaryExpr, stack []ast.Node) {
	info := pass.Info
	if x.Op != token.ADD {
		return
	}
	tv, ok := info.Types[x]
	if !ok || tv.Value != nil || tv.Type == nil || !isStringType(tv.Type) {
		return
	}
	if len(stack) > 0 {
		if p, ok := stack[len(stack)-1].(*ast.BinaryExpr); ok && p.Op == token.ADD {
			if pt, found := info.Types[p]; found && pt.Value == nil && pt.Type != nil && isStringType(pt.Type) {
				return // inner term of a chain; the outermost + reports
			}
		}
	}
	if coldPath(stack) {
		return
	}
	pass.Reportf(x.Pos(), "%s: string concatenation in a //countq:hotpath function allocates the joined result (build into a reserved []byte instead)", name)
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func checkHotCall(pass *Pass, name string, call *ast.CallExpr, stack []ast.Node, clockBudget int, clockSites *int) {
	info := pass.Info
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				kind := "slice"
				if len(call.Args) > 0 {
					if t := info.TypeOf(call.Args[0]); t != nil {
						switch t.Underlying().(type) {
						case *types.Chan:
							kind = "channel"
						case *types.Map:
							kind = "map"
						}
					}
				}
				pass.Reportf(call.Pos(), "%s: make(%s) in a //countq:hotpath function allocates", name, kind)
			case "new":
				pass.Reportf(call.Pos(), "%s: new(...) in a //countq:hotpath function allocates", name)
			case "append":
				if call.Ellipsis.IsValid() {
					pass.Reportf(call.Pos(), "%s: append(s, v...) in a //countq:hotpath function grows by a runtime-sized batch — the reserved-capacity argument that allows plain appends does not cover it", name)
				}
			}
			return
		}
	}
	if isPkgFunc(info, call, "fmt", "") && !coldPath(stack) {
		f := calleeFunc(info, call)
		pass.Reportf(call.Pos(), "%s: fmt.%s outside a return/panic in a //countq:hotpath function (formatting allocates on the measured path)", name, f.Name())
	}
	if isPkgFunc(info, call, "time", "Now") || isPkgFunc(info, call, "time", "Since") {
		*clockSites++
		if *clockSites > clockBudget {
			f := calleeFunc(info, call)
			pass.Reportf(call.Pos(), "%s: time.%s call site %d exceeds the //countq:hotpath clock budget of %d (declare clocks=%d after auditing)",
				name, f.Name(), *clockSites, clockBudget, *clockSites)
		}
	}
}

// coldPath reports whether the innermost statement context of the node at
// the top of stack is a return statement or a panic call — the error
// paths a hot function may format on, since taking them ends the
// measured iteration anyway.
func coldPath(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		case ast.Stmt:
			return false
		}
	}
	return false
}

// isLocalVar reports whether obj is a variable declared inside a function
// (a local, a parameter or a named result) rather than at package level or
// as a struct field: the variables escape analysis would otherwise keep on
// the stack.
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() != nil && v.Parent() != v.Pkg().Scope()
}

// interfaceContext reports the interface type an expression (a composite
// literal, or the address of a local) is assigned, passed or returned
// into, or "" when it stays concrete. Only the expression's immediate use
// is inspected — the boxing site.
func interfaceContext(info *types.Info, lit ast.Expr, stack []ast.Node) string {
	if len(stack) == 0 {
		return ""
	}
	parent := stack[len(stack)-1]
	// &T{...} is reported separately; don't double-report the boxing.
	if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return ""
	}
	litType := info.TypeOf(lit)
	if litType == nil || types.IsInterface(litType) {
		return ""
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		sig, ok := info.TypeOf(p.Fun).(*types.Signature)
		if !ok {
			return ""
		}
		for i, arg := range p.Args {
			if arg != lit && unparen(arg) != lit {
				continue
			}
			var pt types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				last := sig.Params().At(sig.Params().Len() - 1).Type()
				if sl, ok := last.(*types.Slice); ok {
					pt = sl.Elem()
				}
			case i < sig.Params().Len():
				pt = sig.Params().At(i).Type()
			}
			if pt != nil && types.IsInterface(pt) {
				return pt.String()
			}
		}
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if unparen(rhs) != lit || i >= len(p.Lhs) {
				continue
			}
			if lt := info.TypeOf(p.Lhs[i]); lt != nil && types.IsInterface(lt) {
				return lt.String()
			}
		}
	case *ast.ValueSpec:
		for i, v := range p.Values {
			if unparen(v) != lit || i >= len(p.Names) {
				continue
			}
			if def := info.Defs[p.Names[i]]; def != nil && types.IsInterface(def.Type()) {
				return def.Type().String()
			}
		}
	case *ast.ReturnStmt:
		sig := enclosingSignature(info, stack)
		if sig == nil {
			return ""
		}
		for i, res := range p.Results {
			if unparen(res) != lit || i >= sig.Results().Len() {
				continue
			}
			if rt := sig.Results().At(i).Type(); types.IsInterface(rt) {
				return rt.String()
			}
		}
	}
	return ""
}

// enclosingSignature finds the signature of the innermost function
// enclosing the node at the top of stack.
func enclosingSignature(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			sig, _ := info.TypeOf(f).(*types.Signature)
			return sig
		case *ast.FuncDecl:
			if obj, ok := info.Defs[f.Name].(*types.Func); ok {
				return obj.Type().(*types.Signature)
			}
			return nil
		}
	}
	return nil
}
