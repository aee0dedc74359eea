package lint

import (
	"go/ast"
	"go/types"
)

// unparen strips any number of enclosing parentheses (ast.Unparen, inlined
// here because the module's language version predates it).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// walkStack visits every node under root in depth-first order, handing fn
// the chain of ancestors (outermost first, root's parent excluded). fn
// returning false prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves the function or method a call invokes, when it is a
// declared function (not a builtin, func value, or interface method whose
// concrete target is unknown — those return nil).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isPkgFunc reports whether the call invokes the named function (or any
// function when name is "") of the package with the given import path.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	return name == "" || f.Name() == name
}

// exprObj resolves an expression to the object it names, unwrapping parens
// and &x / *x so that `o`, `&o` and `*o` all land on o's object.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[x]; o != nil {
			return o
		}
		return info.Defs[x]
	case *ast.UnaryExpr:
		return exprObj(info, x.X)
	case *ast.StarExpr:
		return exprObj(info, x.X)
	}
	return nil
}

// funcDecls indexes a package's function declarations by their object, so
// analyzers can follow same-package calls into the callee's body.
func funcDecls(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// importedPkg finds an imported package by path, or nil.
func importedPkg(pkg *types.Package, path string) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// scopeInterface looks an interface type up in a package scope.
func scopeInterface(pkg *types.Package, name string) *types.Interface {
	if pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}
