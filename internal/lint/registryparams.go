package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// countqPath is the import path of the public registry package whose
// Register* calls the analyzer verifies.
const countqPath = "repro/countq"

// optionGetters are the countq.Options methods that read a parameter by
// key; their first argument is the spec key the constructor consumes.
var optionGetters = map[string]bool{
	"Int": true, "Int64": true, "Float64": true, "Duration": true,
	"String": true, "Bool": true, "Lookup": true,
}

// RegistryParamsAnalyzer proves the registry declarations honest: every
// RegisterStructure call's declared Params
// must exactly match the option keys its constructor reads through the
// Options getters (drift in either direction is an error — an undeclared
// key is rejected before New runs, a declared-but-unread key documents a
// knob that does nothing), and declared Caps must be backed by the session
// types the structure's NewSession actually returns.
var RegistryParamsAnalyzer = &Analyzer{
	Name: "registryparams",
	Doc: "RegisterStructure declarations must match reality: Params exactly the " +
		"option keys the constructor reads, Caps exactly the capability interfaces the returned " +
		"sessions implement (CapHandle is informational and exempt; a capability whose operation " +
		"kind the structure does not serve is exempt from the must-declare direction)",
	Run: runRegistryParams,
}

func runRegistryParams(pass *Pass) error {
	countq := importedPkg(pass.Pkg, countqPath)
	if countq == nil {
		return nil // package doesn't touch the registry
	}
	decls := funcDecls(pass.Files, pass.Info)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != countqPath {
				return true
			}
			if fn.Name() != "RegisterStructure" {
				return true
			}
			if len(call.Args) != 1 {
				return true
			}
			info := resolveComposite(pass.Files, pass.Info, call.Args[0])
			if info == nil {
				pass.Reportf(call.Pos(), "RegisterStructure argument is not statically resolvable to a composite literal; the analyzer cannot verify its Params/Caps declarations")
				return true
			}
			checkRegistration(pass, countq, decls, info)
			return true
		})
	}
	return nil
}

// infoField finds a field's value in the (possibly positional) Info
// composite literal.
func infoField(pass *Pass, lit *ast.CompositeLit, name string) ast.Expr {
	st, ok := pass.Info.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
				return kv.Value
			}
		}
	}
	// Positional form: match by field index.
	for i, el := range lit.Elts {
		if _, ok := el.(*ast.KeyValueExpr); ok {
			return nil
		}
		if i < st.NumFields() && st.Field(i).Name() == name {
			return el
		}
	}
	return nil
}

func checkRegistration(pass *Pass, countq *types.Package, decls map[*types.Func]*ast.FuncDecl, lit *ast.CompositeLit) {
	structName := "?"
	if nameExpr := infoField(pass, lit, "Name"); nameExpr != nil {
		if s, ok := constString(pass.Info, nameExpr); ok {
			structName = s
		}
	}

	// Declared params: the ParamInfo literals' Name fields.
	declared := make(map[string]ast.Expr)
	if paramsExpr := infoField(pass, lit, "Params"); paramsExpr != nil {
		plist := resolveComposite(pass.Files, pass.Info, paramsExpr)
		if plist == nil {
			pass.Reportf(paramsExpr.Pos(), "RegisterStructure %q: Params is not statically resolvable to its []ParamInfo literal", structName)
			return
		}
		for _, el := range plist.Elts {
			pl, ok := unparen(el).(*ast.CompositeLit)
			if !ok {
				continue
			}
			nameExpr := infoField(pass, pl, "Name")
			if nameExpr == nil {
				continue
			}
			if key, ok := constString(pass.Info, nameExpr); ok {
				declared[key] = nameExpr
			}
		}
	}

	// Keys read: walk the constructor, following same-package calls that
	// the Options value flows into (helper closures like parseCombine,
	// variadic key helpers like requireAtLeast1).
	newExpr := infoField(pass, lit, "New")
	if newExpr == nil {
		return
	}
	read := make(map[string]ast.Node)
	if body, param := constructorBody(pass, decls, newExpr); body != nil && param != nil {
		collectOptionKeys(pass, decls, body, param, make(map[types.Object]bool), read, make(map[ast.Node]bool), 4)
	}

	for key, site := range read {
		if _, ok := declared[key]; !ok {
			pass.Reportf(site.Pos(), "RegisterStructure %q: constructor reads option key %q that Params does not declare (specs setting it are rejected before New runs)", structName, key)
		}
	}
	var unread []string
	for key := range declared {
		if _, ok := read[key]; !ok {
			unread = append(unread, key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		pass.Reportf(declared[key].Pos(), "RegisterStructure %q: declared param %q is never read by the constructor (drift: the knob does nothing)", structName, key)
	}

	checkCaps(pass, countq, decls, structName, lit)
}

// constructorBody resolves the New field to a function body plus its
// Options parameter object.
func constructorBody(pass *Pass, decls map[*types.Func]*ast.FuncDecl, newExpr ast.Expr) (*ast.BlockStmt, types.Object) {
	var typ *ast.FuncType
	var body *ast.BlockStmt
	if fl := resolveFuncLit(pass.Files, pass.Info, newExpr); fl != nil {
		typ, body = fl.Type, fl.Body
	} else if fn := calleeStaticFunc(pass.Info, newExpr); fn != nil {
		if fd := decls[fn]; fd != nil {
			typ, body = fd.Type, fd.Body
		}
	}
	if typ == nil || body == nil || len(typ.Params.List) == 0 {
		return nil, nil
	}
	for _, field := range typ.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil || !isOptionsType(t) {
			continue
		}
		if len(field.Names) > 0 {
			return body, pass.Info.Defs[field.Names[0]]
		}
	}
	return nil, nil
}

// calleeStaticFunc resolves an expression naming a declared function.
func calleeStaticFunc(info *types.Info, e ast.Expr) *types.Func {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		f, _ := info.Uses[x].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[x.Sel].(*types.Func)
		return f
	}
	return nil
}

// isOptionsType recognizes countq.Options and *countq.Options.
func isOptionsType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == countqPath && named.Obj().Name() == "Options"
}

// collectOptionKeys gathers every spec key the function reads from the
// options parameter: getter calls with constant keys directly, plus — one
// hop at a time, depth-bounded — any same-package function or local
// closure the options value is passed into. A helper that reads keys
// arriving through its own parameters (requireAtLeast1's variadic keys)
// reports them via the constant strings at its call site. getters holds
// method values peeled off the options parameter (`g := o.Int`, or o.Int
// passed into a helper's func-typed parameter) — calling one reads a key
// exactly like the selector form.
func collectOptionKeys(pass *Pass, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt, opts types.Object, getters map[types.Object]bool, read map[string]ast.Node, visited map[ast.Node]bool, depth int) bool {
	if depth == 0 || visited[body] {
		return false
	}
	visited[body] = true
	// isGetterValue recognizes an expression denoting a getter bound to
	// the options value: the method value o.Int itself, or a variable a
	// method value was assigned to.
	isGetterValue := func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			return optionGetters[x.Sel.Name] && opts != nil && exprObj(pass.Info, x.X) == opts
		case *ast.Ident:
			obj := exprObj(pass.Info, x)
			return obj != nil && getters[obj]
		}
		return false
	}
	dynamic := false
	ast.Inspect(body, func(n ast.Node) bool {
		// g := o.Int — bind the method value; calls through g below read
		// keys like the selector form does.
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if !isGetterValue(rhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if obj := exprObj(pass.Info, id); obj != nil {
						getters[obj] = true
					} else if obj := pass.Info.Defs[id]; obj != nil {
						getters[obj] = true
					}
				}
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// o.Int("key", def) — a getter on the options parameter.
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && optionGetters[sel.Sel.Name] {
			if opts != nil && exprObj(pass.Info, sel.X) == opts && len(call.Args) > 0 {
				if key, ok := constString(pass.Info, call.Args[0]); ok {
					read[key] = call.Args[0]
				} else {
					dynamic = true
				}
				return true
			}
		}
		// g("key", def) — a call through a bound getter method value.
		if isGetterValue(call.Fun) {
			if _, isSel := unparen(call.Fun).(*ast.SelectorExpr); !isSel && len(call.Args) > 0 {
				if key, ok := constString(pass.Info, call.Args[0]); ok {
					read[key] = call.Args[0]
				} else {
					dynamic = true
				}
				return true
			}
		}
		// helper(o, ...) / helper(&o, "k1", "k2") / readAll(o.Int) —
		// follow the flow of the options value or a bound getter.
		passesOpts := false
		for _, arg := range call.Args {
			if (opts != nil && exprObj(pass.Info, arg) == opts) || isGetterValue(arg) {
				passesOpts = true
				break
			}
		}
		if !passesOpts {
			return true
		}
		calleeDynamic := true // unresolvable callee: assume keys flow via args
		var calleeBody *ast.BlockStmt
		var calleeType *ast.FuncType
		if fl := resolveFuncLit(pass.Files, pass.Info, call.Fun); fl != nil {
			calleeBody, calleeType = fl.Body, fl.Type
		} else if fn := calleeFunc(pass.Info, call); fn != nil {
			if fd := decls[fn]; fd != nil {
				calleeBody, calleeType = fd.Body, fd.Type
			}
		}
		if calleeBody != nil && calleeType != nil {
			var calleeOpts types.Object
			calleeGetters := make(map[types.Object]bool)
			// Flatten the parameter names so a func-typed parameter can be
			// matched positionally to the getter value flowing into it.
			var flat []*ast.Ident
			for _, field := range calleeType.Params.List {
				if t := pass.Info.TypeOf(field.Type); t != nil && isOptionsType(t) && len(field.Names) > 0 && calleeOpts == nil {
					calleeOpts = pass.Info.Defs[field.Names[0]]
				}
				flat = append(flat, field.Names...)
			}
			for i, arg := range call.Args {
				if i < len(flat) && isGetterValue(arg) {
					if obj := pass.Info.Defs[flat[i]]; obj != nil {
						calleeGetters[obj] = true
					}
				}
			}
			if calleeOpts != nil || len(calleeGetters) > 0 {
				calleeDynamic = collectOptionKeys(pass, decls, calleeBody, calleeOpts, calleeGetters, read, visited, depth-1)
			}
		}
		if calleeDynamic {
			// The callee reads keys it receives as arguments: the constant
			// strings at this call site are those keys.
			for _, arg := range call.Args {
				if key, ok := constString(pass.Info, arg); ok {
					read[key] = arg
				}
			}
		}
		return true
	})
	return dynamic
}

// checkCaps verifies RegisterStructure's declared Caps against the
// concrete session types the structure's NewSession returns. CapHandle is
// informational (every session has per-worker state and a Close) and never
// checked. A capability interface the session implements but whose
// operation kind the structure does not serve (BatchSession on a
// queue-only structure) is exempt from the must-declare direction, since
// declaring it would promise an operation the structure rejects.
func checkCaps(pass *Pass, countq *types.Package, decls map[*types.Func]*ast.FuncDecl, structName string, lit *ast.CompositeLit) {
	capsExpr := infoField(pass, lit, "Caps")
	kindsExpr := infoField(pass, lit, "Kinds")
	var caps, kinds int64
	if capsExpr != nil {
		var known bool
		if caps, known = constInt(pass.Info, capsExpr); !known {
			// Declared through a parameter (a registration helper such as
			// sim.RegisterBridge): there is no constant to hold the sessions
			// to here; the conformance suite checks every entry at run time.
			return
		}
	}
	if kindsExpr != nil {
		kinds, _ = constInt(pass.Info, kindsExpr)
	}
	capBatch, ok1 := scopeConstInt(countq, "CapBatch")
	capAsync, ok2 := scopeConstInt(countq, "CapAsync")
	kindCounter, ok3 := scopeConstInt(countq, "KindCounter")
	if !ok1 || !ok2 || !ok3 {
		return
	}
	batchIface := scopeInterface(countq, "BatchSession")
	asyncIface := scopeInterface(countq, "AsyncSession")
	if batchIface == nil || asyncIface == nil {
		return
	}

	newExpr := infoField(pass, lit, "New")
	if newExpr == nil {
		return
	}
	structTypes := resolveReturnTypes(pass, decls, newExpr, make(map[ast.Node]bool), 4)
	var sessTypes []types.Type
	for _, st := range structTypes {
		ns := methodDecl(pass, decls, st, "NewSession")
		if ns == nil {
			continue
		}
		sessTypes = append(sessTypes, resolveReturnsOf(pass, decls, ns.Body, make(map[ast.Node]bool), 4)...)
	}
	if len(sessTypes) == 0 {
		return // not statically resolvable; the conformance suite covers it
	}
	pos := lit.Pos()
	if capsExpr != nil {
		pos = capsExpr.Pos()
	}
	for _, st := range sessTypes {
		implBatch := types.Implements(st, batchIface)
		implAsync := types.Implements(st, asyncIface)
		if caps&capBatch != 0 && !implBatch {
			pass.Reportf(pos, "structure %q declares CapBatch but its session type %s does not implement countq.BatchSession", structName, st)
		}
		if caps&capAsync != 0 && !implAsync {
			pass.Reportf(pos, "structure %q declares CapAsync but its session type %s does not implement countq.AsyncSession", structName, st)
		}
		if implBatch && caps&capBatch == 0 && kinds&kindCounter != 0 {
			pass.Reportf(pos, "structure %q: session type %s implements countq.BatchSession but CapBatch is not declared (the driver will reject batch workloads it could serve)", structName, st)
		}
		if implAsync && caps&capAsync == 0 {
			pass.Reportf(pos, "structure %q: session type %s implements countq.AsyncSession but CapAsync is not declared (the driver will reject pipelined workloads it could serve)", structName, st)
		}
	}
}

// resolveReturnTypes resolves the concrete type(s) a constructor
// expression can return: the static type of each return expression when
// concrete, recursing through same-package calls when the static type is
// an interface.
func resolveReturnTypes(pass *Pass, decls map[*types.Func]*ast.FuncDecl, fnExpr ast.Expr, visited map[ast.Node]bool, depth int) []types.Type {
	if fl := resolveFuncLit(pass.Files, pass.Info, fnExpr); fl != nil {
		return resolveReturnsOf(pass, decls, fl.Body, visited, depth)
	}
	if fn := calleeStaticFunc(pass.Info, fnExpr); fn != nil {
		if fd := decls[fn]; fd != nil {
			return resolveReturnsOf(pass, decls, fd.Body, visited, depth)
		}
	}
	return nil
}

// resolveReturnsOf collects the concrete types of a body's first return
// values, following same-package constructor calls through interface
// results.
func resolveReturnsOf(pass *Pass, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt, visited map[ast.Node]bool, depth int) []types.Type {
	if body == nil || depth == 0 || visited[body] {
		return nil
	}
	visited[body] = true
	var out []types.Type
	walkStack(body, func(n ast.Node, _ []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested closure's returns are not this body's
		}
		if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) > 0 {
			out = append(out, resolveExprTypes(pass, decls, ret.Results[0], visited, depth)...)
		}
		return true
	})
	return out
}

// resolveExprTypes resolves the concrete type(s) an expression can
// evaluate to: its static type when concrete; for an interface-typed
// constructor call (or a `return f(...)` tuple whose first element is
// interface-typed), the types the callee's own returns resolve to.
func resolveExprTypes(pass *Pass, decls map[*types.Func]*ast.FuncDecl, e ast.Expr, visited map[ast.Node]bool, depth int) []types.Type {
	expr := unparen(e)
	if id, ok := expr.(*ast.Ident); ok && id.Name == "nil" {
		return nil
	}
	t := pass.Info.TypeOf(expr)
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return nil
		}
		t = tuple.At(0).Type()
	}
	if t == nil {
		return nil
	}
	if !types.IsInterface(t) {
		return []types.Type{t}
	}
	// Interface-typed: follow a constructor call one level in.
	if call, ok := expr.(*ast.CallExpr); ok {
		if fl := resolveFuncLit(pass.Files, pass.Info, call.Fun); fl != nil {
			return resolveReturnsOf(pass, decls, fl.Body, visited, depth-1)
		}
		if fn := calleeFunc(pass.Info, call); fn != nil {
			if fd := decls[fn]; fd != nil {
				return resolveReturnsOf(pass, decls, fd.Body, visited, depth-1)
			}
		}
	}
	return nil
}

// methodDecl finds the declaration of a method on a (possibly pointer)
// named type in the analyzed package.
func methodDecl(pass *Pass, decls map[*types.Func]*ast.FuncDecl, t types.Type, name string) *ast.FuncDecl {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return decls[fn]
}
