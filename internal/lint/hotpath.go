package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkHotpath reports allocation-inducing constructs reachable from
// //soravet:hotpath-annotated roots — the AllocsPerRun-pinned functions
// whose zero-alloc steady state PR 6 bought (event-loop pop,
// Timer.Reset, psq submit/complete, cluster startVisit, flight-recorder
// Observe). One innocent closure or fmt call on those paths regresses
// the pins; this check names the construct, why it allocates, and the
// annotated root it is reachable from, so the regression fails
// verify.sh before the benchmark ever runs.
//
// Reachability is a static call graph: calls whose callee resolves to a
// declared function or method in the module add an edge; dynamic calls
// (stored func values like tm.fn(), interface methods) cut the graph.
// The repo's pools annotate both sides of such indirections (submit AND
// complete), which is exactly why the issuance/callback pairs are
// separate roots. Function-literal bodies are not traversed: the
// literal itself is already flagged as a closure allocation, and code
// behind a deliberately allowed closure is by definition off the pinned
// path. Constructs inside panic(...) arguments are exempt — a panicking
// run has no allocation budget.
//
// The construct list errs toward the constructs that show up in
// AllocsPerRun diffs rather than a full escape analysis: closures and
// bound method values, fmt calls, string conversions and concatenation,
// map/slice composite literals, make/new/&T{}, append (may grow its
// backing array), variadic calls (argument-slice allocation), and
// interface boxing at call sites. Besides allocations it flags a map
// index whose key holds a string: the key's bytes are hashed on every
// call, where an id resolved once would index a slice. Deliberate,
// amortized, or cold-path allocations are annotated //soravet:allow
// hotpath with the reason (pool-miss path, free-list append at
// steady-state capacity, ...).
func checkHotpath(m *Module, p *Package, report reporter) {
	hot := m.hotpath()
	for _, f := range hot.findingsByPkg[p] {
		report(f.pos, f.msg)
	}
}

// hotFinding is one pre-computed hotpath finding (the scan runs once
// module-wide; findings are attributed to packages as checks visit
// them).
type hotFinding struct {
	pos token.Pos
	msg string
}

type hotResult struct {
	findingsByPkg map[*Package][]hotFinding
}

// hotpath computes (once) the reachable set and construct findings.
func (m *Module) hotpath() *hotResult {
	if m.hot != nil {
		return m.hot
	}
	anns := m.annotations()
	res := &hotResult{findingsByPkg: make(map[*Package][]hotFinding)}
	m.hot = res
	if len(anns.roots) == 0 {
		return res
	}

	// rootFor: every function reachable from an annotated root, mapped
	// to the lexicographically smallest root label that reaches it
	// (deterministic attribution when paths overlap).
	rootFor := make(map[*types.Func]string)
	roots := append([]*hotRoot(nil), anns.roots...)
	sort.Slice(roots, func(i, j int) bool { return roots[i].label < roots[j].label })
	for _, r := range roots {
		seen := map[*types.Func]bool{r.fn: true}
		queue := []*types.Func{r.fn}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if _, claimed := rootFor[fn]; !claimed {
				rootFor[fn] = r.label
			}
			d, ok := anns.declOf[fn]
			if !ok || d.decl.Body == nil {
				continue
			}
			walkShallow(d.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(d.pkg.Info, call)
				if callee == nil || seen[callee] {
					return true
				}
				if _, declared := anns.declOf[callee]; declared {
					seen[callee] = true
					queue = append(queue, callee)
				}
				return true
			})
		}
	}

	// Deterministic scan order over the reachable set.
	reachable := make([]*types.Func, 0, len(rootFor))
	for fn := range rootFor {
		if _, ok := anns.declOf[fn]; ok {
			reachable = append(reachable, fn)
		}
	}
	sort.Slice(reachable, func(i, j int) bool {
		return reachable[i].Pos() < reachable[j].Pos()
	})
	for _, fn := range reachable {
		d := anns.declOf[fn]
		if d.decl.Body == nil {
			continue
		}
		scanHotBody(d.pkg, d.decl.Body, rootFor[fn], func(pos token.Pos, msg string) {
			res.findingsByPkg[d.pkg] = append(res.findingsByPkg[d.pkg], hotFinding{pos: pos, msg: msg})
		})
	}
	return res
}

// scanHotBody reports allocation constructs in one reachable function
// body. root is the annotated root label for the messages.
func scanHotBody(p *Package, body *ast.BlockStmt, root string, report reporter) {
	info := p.Info
	skip := panicArgs(body)
	emit := func(pos token.Pos, what, why string) {
		report(pos, fmt.Sprintf("%s %s (hot path, reachable from //soravet:hotpath root %s)", what, why, root))
	}
	loopVars := loopVarsIn(body)
	called := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			called[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			what := "function literal"
			if v := capturedLoopVar(info, n, loopVars); v != "" {
				what = fmt.Sprintf("function literal capturing loop variable %s", v)
			}
			emit(n.Pos(), what, "allocates a closure")
			return false // the body is behind the closure, not on the pinned path
		case *ast.CallExpr:
			scanHotCall(info, n, emit)
		case *ast.CompositeLit:
			switch underlyingOf(info.Types[n].Type).(type) {
			case *types.Map:
				emit(n.Pos(), "map literal", "allocates")
			case *types.Slice:
				emit(n.Pos(), "slice literal", "allocates its backing array")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					emit(n.Pos(), "&composite literal", "escapes to the heap")
				}
			}
		case *ast.IndexExpr:
			if m, ok := underlyingOf(info.Types[n.X].Type).(*types.Map); ok && holdsString(m.Key()) {
				key := types.TypeString(m.Key(), func(p *types.Package) string { return p.Name() })
				if !isStringType(m.Key()) {
					key += ", which holds a string,"
				}
				emit(n.Pos(), "map index keyed by "+key, "hashes the key on every call")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.Types[n.X].Type) {
				emit(n.Pos(), "string concatenation", "allocates the result")
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !called[n] {
				emit(n.Pos(), "bound method value", "allocates a closure")
			}
		}
		return true
	})
}

// holdsString reports whether hashing a value of type t hashes string
// bytes: t is a string, or an array or struct with one inside (neither
// can contain itself by value, so the recursion ends).
func holdsString(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Array:
		return holdsString(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsString(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

func underlyingOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// scanHotCall applies the call-site rules: fmt, string conversions,
// make/new, append, variadic argument slices, and interface boxing.
func scanHotCall(info *types.Info, call *ast.CallExpr, emit func(token.Pos, string, string)) {
	fun := ast.Unparen(call.Fun)

	// Conversions: string([]byte), []byte(s), []rune(s), ...
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.Types[call.Args[0]].Type
			if allocatingConversion(from, to) {
				emit(call.Pos(), "string conversion", "copies and allocates")
			}
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				emit(call.Pos(), "append", "may grow its backing array")
			case "make":
				emit(call.Pos(), "make", "allocates")
			case "new":
				emit(call.Pos(), "new", "allocates")
			}
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if pn, ok := info.Uses[identOf(sel.X)].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
			emit(call.Pos(), "fmt."+sel.Sel.Name+" call", "allocates for formatting")
			return
		}
	}

	sig, ok := underlyingOf(info.Types[fun].Type).(*types.Signature)
	if !ok {
		return
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
		emit(call.Pos(), "variadic call", "allocates its argument slice")
	}
	// Interface boxing: a concrete (non-pointer-to-interface) argument
	// passed in an interface-typed parameter slot.
	for i, arg := range call.Args {
		var paramType types.Type
		if i < sig.Params().Len()-1 || !sig.Variadic() && i < sig.Params().Len() {
			paramType = sig.Params().At(i).Type()
		} else if sig.Variadic() && call.Ellipsis == token.NoPos && sig.Params().Len() > 0 {
			if st, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				paramType = st.Elem()
			}
		}
		if paramType == nil {
			continue
		}
		if _, isIface := paramType.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.Types[arg]
		if at.Type == nil || at.IsNil() {
			continue
		}
		if _, argIface := at.Type.Underlying().(*types.Interface); argIface {
			continue // interface-to-interface: no box
		}
		if basicKindPointer(at.Type) {
			continue // pointers box without allocating the payload
		}
		emit(arg.Pos(), fmt.Sprintf("passing %s in interface parameter", at.Type.String()), "boxes the value")
	}
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// basicKindPointer reports pointer-shaped types whose interface boxing
// stores the pointer word directly (no payload allocation).
func basicKindPointer(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind() == types.UnsafePointer
	}
	return false
}

// allocatingConversion reports the string/byte/rune conversions that
// copy.
func allocatingConversion(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	fs, ts := isStringType(from), isStringType(to)
	byteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return fs && byteOrRuneSlice(to) || ts && byteOrRuneSlice(from)
}

// panicArgs collects the argument subtrees of panic calls so the
// construct scan can skip them: panics are off any allocation budget.
func panicArgs(body *ast.BlockStmt) map[ast.Node]bool {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			for _, arg := range call.Args {
				skip[arg] = true
			}
		}
		return true
	})
	return skip
}

// loopScope pairs one for/range body with its iteration variables.
type loopScope struct {
	body *ast.BlockStmt
	vars []*ast.Ident
}

// loopVarsIn lists each for/range statement's iteration variables in
// source order, for the closure-capture heuristic.
func loopVarsIn(body *ast.BlockStmt) []loopScope {
	var out []loopScope
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			var vars []*ast.Ident
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id := identOf(e); id != nil && id.Name != "_" {
					vars = append(vars, id)
				}
			}
			if len(vars) > 0 {
				out = append(out, loopScope{body: n.Body, vars: vars})
			}
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				var vars []*ast.Ident
				for _, e := range init.Lhs {
					if id := identOf(e); id != nil && id.Name != "_" {
						vars = append(vars, id)
					}
				}
				if len(vars) > 0 {
					out = append(out, loopScope{body: n.Body, vars: vars})
				}
			}
		}
		return true
	})
	return out
}

// capturedLoopVar names the first loop variable the literal closes
// over, if the literal sits inside that loop's body.
func capturedLoopVar(info *types.Info, lit *ast.FuncLit, loops []loopScope) string {
	for _, loop := range loops {
		if lit.Pos() < loop.body.Pos() || lit.End() > loop.body.End() {
			continue
		}
		for _, v := range loop.vars {
			obj := info.ObjectOf(v)
			if obj == nil {
				continue
			}
			found := ""
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					found = id.Name
				}
				return found == ""
			})
			if found != "" {
				return found
			}
		}
	}
	return ""
}
