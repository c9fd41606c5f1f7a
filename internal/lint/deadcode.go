package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkDeadcode reports every function and method that no main package
// of the module can reach. The roots are main and init of each package
// named main, plus every init function and package-level variable
// initializer anywhere in the module. From there a function is live
// once a live body, signature or initializer references it through
// types.Info.Uses: calls, function values (register(Experiment{Run:
// runFig1})), method values and method expressions, including
// references inside function literals. Generic functions and methods of
// instantiated types resolve to their declarations via Origin.
//
// Dynamic dispatch is handled conservatively. A module-declared named
// type is live once a live body, signature or type declaration names
// it, or once a live expression has that type; the field types of a
// live struct are live too. Every method of a live type whose name
// matches a method of some interface in the loaded program (the
// module's own interfaces, named or anonymous, plus the named
// interfaces of every package it imports, transitively: Stringer,
// error, sort.Interface, json.Marshaler, ...) is live, since an
// interface call could reach it.
//
// The loader does not parse _test.go files, so code only tests call is
// a finding like any other. A module without a main package (a library
// fixture) has no roots and the check stays silent, as racelist does
// without a verify.sh.
func checkDeadcode(m *Module, p *Package, report reporter) {
	for _, f := range m.deadcode().findingsByPkg[p] {
		report(f.pos, f.msg)
	}
}

// deadResult is the module-wide reachability result, computed once.
type deadResult struct {
	rootPkgs      []string // import paths of the main packages, sorted
	findingsByPkg map[*Package][]hotFinding
}

// deadWalk is the worklist state of one reachability scan.
type deadWalk struct {
	anns       *annotations
	typeSpecs  map[*types.TypeName]typeSpecInfo
	ifaceNames map[string]bool
	liveFuncs  map[*types.Func]bool
	liveTypes  map[*types.TypeName]bool
	seenTypes  map[types.Type]bool
	queue      []deadItem
}

// typeSpecInfo locates a package-level type declaration.
type typeSpecInfo struct {
	spec *ast.TypeSpec
	pkg  *Package
}

// deadItem is a syntax subtree whose references become live.
type deadItem struct {
	node ast.Node
	pkg  *Package
}

// deadcode computes (once) the live set and the findings.
func (m *Module) deadcode() *deadResult {
	if m.dead != nil {
		return m.dead
	}
	res := &deadResult{findingsByPkg: make(map[*Package][]hotFinding)}
	m.dead = res
	for _, p := range m.Pkgs {
		if p.Pkg.Name() == "main" {
			res.rootPkgs = append(res.rootPkgs, p.ImportPath)
		}
	}
	if len(res.rootPkgs) == 0 {
		return res
	}

	w := &deadWalk{
		anns:       m.annotations(),
		typeSpecs:  make(map[*types.TypeName]typeSpecInfo),
		ifaceNames: interfaceMethodNames(m),
		liveFuncs:  make(map[*types.Func]bool),
		liveTypes:  make(map[*types.TypeName]bool),
		seenTypes:  make(map[types.Type]bool),
	}
	// One pass indexes every package-level type declaration and queues
	// the roots: main and init of main packages, every init, every
	// package-level variable initializer. Nothing is scanned until the
	// index is complete.
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv == nil && (name == "init" || name == "main" && p.Pkg.Name() == "main") {
						if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
							w.markFunc(fn)
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if tn, ok := p.Info.Defs[s.Name].(*types.TypeName); ok {
								w.typeSpecs[tn] = typeSpecInfo{spec: s, pkg: p}
							}
						case *ast.ValueSpec:
							if d.Tok == token.VAR && len(s.Values) > 0 {
								w.queue = append(w.queue, deadItem{node: s, pkg: p})
							}
						}
					}
				}
			}
		}
	}
	for len(w.queue) > 0 {
		it := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		w.visit(it)
	}

	var dead []*types.Func
	for fn := range w.anns.declOf {
		if !w.liveFuncs[fn] {
			dead = append(dead, fn)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Pos() < dead[j].Pos() })
	for _, fn := range dead {
		d := w.anns.declOf[fn]
		kind := "function"
		if d.decl.Recv != nil {
			kind = "method"
		}
		res.findingsByPkg[d.pkg] = append(res.findingsByPkg[d.pkg], hotFinding{
			pos: d.decl.Pos(),
			msg: fmt.Sprintf("%s %s is unreachable from every main package; delete it, or keep it with //soravet:allow deadcode <reason>", kind, funcLabel(fn)),
		})
	}
	return res
}

// markFunc makes a module-declared function live and queues its
// declaration (signature and body) for scanning.
func (w *deadWalk) markFunc(fn *types.Func) {
	fn = fn.Origin()
	if w.liveFuncs[fn] {
		return
	}
	d, ok := w.anns.declOf[fn]
	if !ok {
		return // stdlib, or an interface method
	}
	w.liveFuncs[fn] = true
	w.queue = append(w.queue, deadItem{node: d.decl, pkg: d.pkg})
}

// markType makes a module-declared named type live: its declaration is
// queued (field types become live) and its methods that some interface
// could dispatch to become live.
func (w *deadWalk) markType(tn *types.TypeName) {
	if w.liveTypes[tn] {
		return
	}
	ts, ok := w.typeSpecs[tn]
	if !ok {
		return
	}
	w.liveTypes[tn] = true
	w.queue = append(w.queue, deadItem{node: ts.spec, pkg: ts.pkg})
	if n, ok := tn.Type().(*types.Named); ok {
		for i := 0; i < n.NumMethods(); i++ {
			if meth := n.Method(i); w.ifaceNames[meth.Name()] {
				w.markFunc(meth)
			}
		}
	}
}

// markTypeOf makes every named type a value of type t mentions live.
func (w *deadWalk) markTypeOf(t types.Type) {
	if t == nil || w.seenTypes[t] {
		return
	}
	w.seenTypes[t] = true
	switch t := t.(type) {
	case *types.Alias:
		w.markTypeOf(types.Unalias(t))
	case *types.Named:
		w.markType(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			w.markTypeOf(t.TypeArgs().At(i))
		}
	case *types.Pointer:
		w.markTypeOf(t.Elem())
	case *types.Slice:
		w.markTypeOf(t.Elem())
	case *types.Array:
		w.markTypeOf(t.Elem())
	case *types.Chan:
		w.markTypeOf(t.Elem())
	case *types.Map:
		w.markTypeOf(t.Key())
		w.markTypeOf(t.Elem())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			w.markTypeOf(t.At(i).Type())
		}
	case *types.Signature:
		w.markTypeOf(t.Params())
		w.markTypeOf(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.markTypeOf(t.Field(i).Type())
		}
	}
}

// visit scans one queued subtree, function literals included: every
// referenced function and type, and the type of every expression,
// becomes live.
func (w *deadWalk) visit(it deadItem) {
	info := it.pkg.Info
	ast.Inspect(it.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				w.markFunc(obj)
			case *types.TypeName:
				w.markTypeOf(obj.Type())
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				w.markTypeOf(tv.Type)
			}
		}
		return true
	})
}

// interfaceMethodNames collects the method names of every interface in
// the loaded program: each interface type written in the module (named
// or anonymous, embedded methods included) and each package-level
// interface type of every package the module imports, transitively.
func interfaceMethodNames(m *Module) map[string]bool {
	names := make(map[string]bool)
	addIface := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var addPkg func(pkg *types.Package)
	addPkg = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type().Underlying())
			}
		}
		for _, imp := range pkg.Imports() {
			addPkg(imp)
		}
	}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(p.Info.Types[it].Type)
				}
				return true
			})
		}
		addPkg(p.Pkg)
	}
	return names
}
