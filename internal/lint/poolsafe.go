package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkPoolsafe enforces the handle-validity contracts declared by
// //soravet:pool annotations (see annotations.go for the grammar). A
// pooled handle (*T for an annotated T) is valid from issuance until an
// invalidating call; after that the pool may recycle the object under
// the handle, so any further use silently aliases unrelated state —
// the PR 6 class of bug that corrupts spans and every SCG decision
// downstream. Three rules:
//
//  1. use-after-invalidate: a forward may-analysis over the per-function
//     CFG tracks handle-valued expressions (locals and field paths like
//     s.timer); once any path passes an invalidating call, every later
//     read of the handle is flagged until it is reassigned.
//
//  2. escaping stores: outside the pool's own package, storing a handle
//     into a slice/map element, a struct field, or a composite literal,
//     or returning one from an exported boundary, parks a maybe-recycled
//     pointer where no lifetime analysis can follow it.
//
//  3. nil-at-fire: the one blessed field-store shape is arming —
//     `x.f = issuer(..., callback)` where the issuer is declared in the
//     pool's package and returns the handle. Its contract (DESIGN.md
//     §13) is that the callback must clear x.f before its first call,
//     because the handle goes stale the moment the pool may recycle it
//     (for timers: at fire entry). The check resolves the callback —
//     a method value, a function literal, or a field like g.fireFn
//     assigned exactly one method — and verifies the clearing
//     assignment dominates every call in its body.
//
// Contracts declared "invalidated-by none" (trace.Span, recycled by
// the cluster) opt out of all three rules; they exist as machine-checked
// documentation that the type is pool-managed.
//
// Function literals are analyzed as separate functions with a fresh
// entry state: a closure runs at an unknown time, so neither the
// creation-site validity nor its invalidations flow across the
// boundary. Aliasing is tracked only through direct single-value
// assignments (w := v); handles laundered through interfaces or
// containers are the stores rule 2 exists to keep out of reach.
func checkPoolsafe(m *Module, p *Package, report reporter) {
	anns := m.annotations()
	if len(anns.pools) == 0 {
		return
	}
	ps := &poolsafeRun{m: m, p: p, anns: anns, report: report}
	eachFuncBody(p, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		if fn, ok := p.Info.Defs[decl.Name].(*types.Func); ok && anns.invalidatorOf(fn) != nil {
			// The invalidator's own body is the one place handles are
			// legitimately in transition back to the pool.
			return
		}
		ps.analyzeBody(body)
	})
	ps.checkStores()
	ps.checkReturns()
}

type poolsafeRun struct {
	m      *Module
	p      *Package
	anns   *annotations
	report reporter
}

// cellKey identifies one tracked handle expression: a root variable
// plus a field path ("" for the root itself, ".timer" for s.timer).
type cellKey struct {
	root types.Object
	path string
}

func (c cellKey) String() string { return c.root.Name() + c.path }

// psState maps invalidated cells to the display label of the
// invalidating call that killed them (the lexicographically smallest,
// when paths disagree, so fixpoints are deterministic).
type psState map[cellKey]string

func (s psState) clone() psState {
	out := make(psState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// mergeInto unions src into dst, reporting whether dst changed.
func mergeInto(dst, src psState) bool {
	changed := false
	for k, v := range src {
		if old, ok := dst[k]; !ok || v < old {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

// analyzeBody runs the use-after-invalidate may-analysis over one
// function body: fixpoint first, then a reporting pass from the stable
// block-entry states.
func (ps *poolsafeRun) analyzeBody(body *ast.BlockStmt) {
	g := buildCFG(body)
	in := make([]psState, len(g.blocks))
	in[0] = psState{}
	work := []int{0}
	inWork := make([]bool, len(g.blocks))
	inWork[0] = true
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		inWork[id] = false
		b := g.blocks[id]
		if in[id] == nil {
			in[id] = psState{}
		}
		out := in[id].clone()
		for _, n := range b.nodes {
			ps.transfer(out, n, false)
		}
		for _, succ := range b.succs {
			// A nil in-state means the successor has never been visited;
			// that alone schedules it, since merging an empty out-state
			// reports no change but the block's own gens still need a pass.
			first := in[succ.id] == nil
			if first {
				in[succ.id] = psState{}
			}
			if (mergeInto(in[succ.id], out) || first) && !inWork[succ.id] {
				work = append(work, succ.id)
				inWork[succ.id] = true
			}
		}
	}
	for _, b := range g.blocks {
		if in[b.id] == nil {
			continue
		}
		state := in[b.id].clone()
		for _, n := range b.nodes {
			ps.transfer(state, n, true)
		}
	}
}

// transfer applies one block node to the state: report uses against the
// incoming state, then kills (assignments), then gens (invalidating
// calls) — so an invalidator's own receiver/argument reads the still-
// valid handle, and a reassignment revalidates before the next node.
func (ps *poolsafeRun) transfer(state psState, n ast.Node, reporting bool) {
	info := ps.p.Info

	// Writes: exact assignment targets are kills, not uses (though a
	// read through an invalid prefix, e.g. v.span = x with v stale, is
	// still reported below).
	writes := make(map[ast.Expr]bool)
	var kills []cellKey
	var aliasGens []struct {
		dst   cellKey
		label string
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			lhs = ast.Unparen(lhs)
			if c, ok := pathCell(info, lhs); ok {
				writes[lhs] = true
				kills = append(kills, c)
				if len(s.Lhs) == len(s.Rhs) {
					if rc, ok := pathCell(info, s.Rhs[i]); ok {
						if label, hit := stateHit(state, rc, true); hit {
							aliasGens = append(aliasGens, struct {
								dst   cellKey
								label string
							}{c, label})
						}
					}
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if obj := info.ObjectOf(name); obj != nil {
							writes[ast.Expr(name)] = true
							kills = append(kills, cellKey{root: obj})
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Shallow by construction (flow.go): operand read, key/value
		// assigned fresh each iteration; the body lives in other blocks.
		if reporting {
			ps.reportUses(state, s.X, nil)
		}
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if c, ok := pathCell(info, ast.Unparen(e)); ok {
				kills = append(kills, c)
			}
		}
		return
	}

	if reporting {
		ps.reportUses(state, n, writes)
	}
	for _, c := range kills {
		killCell(state, c)
	}
	for _, g := range aliasGens {
		state[g.dst] = g.label
	}

	walkShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		contract := ps.anns.invalidatorOf(fn)
		if contract == nil {
			return true
		}
		label := funcLabel(fn)
		// The handle being invalidated: the receiver when the
		// invalidator is a method on the pooled type, otherwise every
		// argument of the handle type.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if ps.anns.contractFor(info.Types[sel.X].Type) == contract {
				if c, ok := pathCell(info, sel.X); ok {
					state[c] = label
				}
			}
		}
		for _, arg := range call.Args {
			if ps.anns.contractFor(info.Types[arg].Type) != contract {
				continue
			}
			if c, ok := pathCell(info, arg); ok {
				state[c] = label
			}
		}
		return true
	})
}

// reportUses flags every read of an invalidated cell inside n. writes
// holds exact assignment-target expressions: for those only an invalid
// strict prefix (the base of a field write) is a read.
func (ps *poolsafeRun) reportUses(state psState, n ast.Node, writes map[ast.Expr]bool) {
	if len(state) == 0 {
		return
	}
	info := ps.p.Info
	walkShallow(n, func(m ast.Node) bool {
		e, ok := m.(ast.Expr)
		if !ok {
			return true
		}
		c, ok := pathCell(info, e)
		if !ok {
			return true
		}
		if label, hit := stateHit(state, c, !writes[e]); hit {
			ps.report(e.Pos(), fmt.Sprintf(
				"pooled handle %s used after %s may have invalidated it on this path; the pool may already have recycled the object (reassign or nil the handle first)",
				c, label))
		}
		return false // maximal expression consumed; don't re-flag its base
	})
}

// stateHit reports whether c or (includeSelf=false: only) a strict
// prefix of c is invalidated, returning the invalidator label.
func stateHit(state psState, c cellKey, includeSelf bool) (string, bool) {
	best := ""
	hit := false
	for k, label := range state {
		if k.root != c.root {
			continue
		}
		if k.path == c.path && !includeSelf {
			continue
		}
		if k.path == c.path || strings.HasPrefix(c.path, k.path+".") {
			if !hit || label < best {
				best, hit = label, true
			}
		}
	}
	return best, hit
}

// killCell removes c and everything rooted under it (assigning v
// revalidates v and v.anything).
func killCell(state psState, c cellKey) {
	for k := range state {
		if k.root == c.root && (k.path == c.path || strings.HasPrefix(k.path, c.path+".")) {
			delete(state, k)
		}
	}
}

// pathCell resolves an expression to a trackable cell: a non-field
// variable, or a chain of struct-field selections rooted at one.
func pathCell(info *types.Info, e ast.Expr) (cellKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok && !v.IsField() {
			return cellKey{root: v}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if base, ok := pathCell(info, e.X); ok {
				return cellKey{root: base.root, path: base.path + "." + e.Sel.Name}, true
			}
		}
	}
	return cellKey{}, false
}

// checkStores walks the package for rule-2/rule-3 stores: pooled
// handles parked in containers, fields or composite literals outside
// the pool's package, and arm sites (x.f = issuer(..., cb)) anywhere.
func (ps *poolsafeRun) checkStores() {
	info := ps.p.Info
	for _, f := range ps.p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					if len(n.Lhs) == len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					ps.checkStore(lhs, rhs)
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					val := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						val = kv.Value
					}
					if c := ps.escapingContract(info.Types[val].Type); c != nil {
						ps.report(val.Pos(), fmt.Sprintf(
							"pooled %s handle stored in a composite literal outside %s; the pool may recycle it while the literal still points at it",
							c.display(), c.pkg.Pkg.Name()))
					}
				}
			case *ast.CallExpr:
				if b, ok := builtinOf(info, n.Fun); ok && b == "append" && len(n.Args) > 0 {
					for _, arg := range n.Args[1:] {
						if c := ps.escapingContract(info.Types[arg].Type); c != nil {
							ps.report(arg.Pos(), fmt.Sprintf(
								"pooled %s handle appended to a slice outside %s; a recycled handle in a container outlives its validity",
								c.display(), c.pkg.Pkg.Name()))
						}
					}
				}
			}
			return true
		})
	}
}

// builtinOf resolves a call's function expression to a builtin's name.
func builtinOf(info *types.Info, fun ast.Expr) (string, bool) {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

// escapingContract returns the contract for a handle type when storing
// it in this package is an escape: the type has invalidators and is
// declared elsewhere (the pool's own package manages free lists).
func (ps *poolsafeRun) escapingContract(t types.Type) *poolContract {
	if t == nil {
		return nil
	}
	c := ps.anns.contractFor(t)
	if c == nil || len(c.invalidators) == 0 || c.pkg == ps.p {
		return nil
	}
	return c
}

func (c *poolContract) display() string {
	return c.pkg.Pkg.Name() + "." + c.typeName.Name()
}

// checkStore applies the field/element store rules to one assignment
// target.
func (ps *poolsafeRun) checkStore(lhs, rhs ast.Expr) {
	info := ps.p.Info
	stored := info.Types[ast.Unparen(lhs)].Type
	if rhs != nil {
		stored = info.Types[ast.Unparen(rhs)].Type
	}
	contract := ps.anns.contractFor(stored)
	if contract == nil || len(contract.invalidators) == 0 {
		return
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		if contract.pkg != ps.p {
			ps.report(lhs.Pos(), fmt.Sprintf(
				"pooled %s handle stored into a slice/map element outside %s; a recycled handle in a container outlives its validity",
				contract.display(), contract.pkg.Pkg.Name()))
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[lhs]
		if !ok || sel.Kind() != types.FieldVal {
			return
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if issuer := ps.issuanceCall(call, contract); issuer != nil {
				ps.checkArmSite(lhs, call, issuer, contract)
				return
			}
		}
		if contract.pkg != ps.p {
			ps.report(lhs.Pos(), fmt.Sprintf(
				"pooled %s handle stored into field %s outside %s without a recognized guard; store only fresh issuance results (x.f = issuer(...)) so the nil-at-fire contract applies, or annotate the revalidation",
				contract.display(), lhs.Sel.Name, contract.pkg.Pkg.Name()))
		}
	}
}

// issuanceCall reports whether call invokes a function declared in the
// pool's package that returns the handle type (Schedule, At, Submit...).
func (ps *poolsafeRun) issuanceCall(call *ast.CallExpr, contract *poolContract) *types.Func {
	fn := staticCallee(ps.p.Info, call)
	if fn == nil || fn.Pkg() != contract.pkg.Pkg {
		return nil
	}
	if ps.anns.contractFor(ps.p.Info.Types[call].Type) != contract {
		return nil
	}
	return fn
}

// checkArmSite verifies the nil-at-fire contract for one arm site:
// x.f = issuer(..., cb). The callback must clear field f before its
// first call on every path.
func (ps *poolsafeRun) checkArmSite(lhs *ast.SelectorExpr, call *ast.CallExpr, issuer *types.Func, contract *poolContract) {
	field, _ := ps.p.Info.Uses[lhs.Sel].(*types.Var)
	if field == nil {
		return
	}
	var cbs []resolvedCallback
	for _, arg := range call.Args {
		if _, ok := ps.p.Info.Types[arg].Type.Underlying().(*types.Signature); ok {
			cbs = ps.resolveCallback(arg)
			break
		}
	}
	if cbs == nil {
		ps.report(lhs.Pos(), fmt.Sprintf(
			"cannot resolve the callback armed by %s to verify that stored %s handle %s is cleared at fire entry; pass a method value, a func literal, or a field assigned exactly one method",
			funcLabel(issuer), contract.display(), lhs.Sel.Name))
		return
	}
	for _, cb := range cbs {
		if cb.body != nil && !clearsFieldBeforeCalls(cb.body, field, cb.info) {
			ps.report(lhs.Pos(), fmt.Sprintf(
				"armed callback %s does not nil field %s before its first call on every path; a fired handle may already be recycled when downstream code runs (nil-at-fire contract, DESIGN.md §13)",
				cb.label, lhs.Sel.Name))
		}
	}
}

// resolvedCallback is one candidate function a callback expression may
// invoke, with the body to verify and the Info that typed it.
type resolvedCallback struct {
	label string
	body  *ast.BlockStmt
	info  *types.Info
}

// resolveCallback maps a callback argument to the function bodies it
// can run: a func literal, a method value, or a field/variable that is
// assigned exactly one function module-wide. nil means unresolvable.
func (ps *poolsafeRun) resolveCallback(arg ast.Expr) []resolvedCallback {
	info := ps.p.Info
	arg = ast.Unparen(arg)
	if lit, ok := arg.(*ast.FuncLit); ok {
		return []resolvedCallback{{label: "(func literal)", body: lit.Body, info: info}}
	}
	if fn := funcValueOf(info, arg); fn != nil {
		return ps.callbacksOf(fn)
	}
	// A stored callback: g.fireFn or a local holding one.
	if obj := assignTargetObj(info, arg); obj != nil {
		if fns := ps.anns.funcsStoredIn[obj]; len(fns) > 0 {
			uniq := dedupFuncs(fns)
			if len(uniq) == 1 {
				return ps.callbacksOf(uniq[0])
			}
		}
	}
	return nil
}

func (ps *poolsafeRun) callbacksOf(fn *types.Func) []resolvedCallback {
	d, ok := ps.anns.declOf[fn]
	if !ok || d.decl.Body == nil {
		return nil
	}
	return []resolvedCallback{{label: funcLabel(fn), body: d.decl.Body, info: d.pkg.Info}}
}

func dedupFuncs(fns []*types.Func) []*types.Func {
	seen := make(map[*types.Func]bool)
	var out []*types.Func
	for _, fn := range fns {
		if !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	return out
}

// clearsFieldBeforeCalls runs a forward must-analysis over the callback
// body: "the stored field has been nilled" must hold before any call
// executes on every path.
func clearsFieldBeforeCalls(body *ast.BlockStmt, field *types.Var, cbInfo *types.Info) bool {
	g := buildCFG(body)
	const (
		unknown = 0 // not yet computed (optimistic top for the meet)
		dirty   = 1
		cleared = 2
	)
	in := make([]int, len(g.blocks))
	for i := range in {
		in[i] = unknown
	}
	in[0] = dirty
	clearsIn := func(n ast.Node) bool {
		found := false
		walkShallow(n, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, lhs := range as.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok || cbInfo.Uses[sel.Sel] != field {
						continue
					}
					if id, ok := ast.Unparen(as.Rhs[i]).(*ast.Ident); ok && id.Name == "nil" {
						found = true
					}
				}
			}
			return true
		})
		return found
	}
	hasCall := func(n ast.Node) bool {
		found := false
		walkShallow(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.CallExpr); ok {
				found = true
			}
			return true
		})
		return found
	}
	outOf := func(id int) int {
		state := in[id]
		for _, n := range g.blocks[id].nodes {
			if state == dirty && clearsIn(n) {
				state = cleared
			}
		}
		return state
	}
	work := []int{0}
	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		out := outOf(id)
		for _, succ := range g.blocks[id].succs {
			// meet: dirty wins over cleared; unknown adopts anything.
			next := in[succ.id]
			switch {
			case next == unknown:
				next = out
			case out == dirty:
				next = dirty
			}
			if next != in[succ.id] {
				in[succ.id] = next
				work = append(work, succ.id)
			}
		}
	}
	for _, b := range g.blocks {
		state := in[b.id]
		if state == unknown {
			continue
		}
		for _, n := range b.nodes {
			if state == dirty {
				if hasCall(n) {
					return false
				}
				if clearsIn(n) {
					state = cleared
				}
			}
		}
	}
	return true
}

// checkReturns flags functions outside the pool's package whose results
// include a pooled handle: the caller cannot see the contract, so the
// handle escapes its owner's scope.
func (ps *poolsafeRun) checkReturns() {
	for _, f := range ps.p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Type.Results == nil {
				continue
			}
			for _, res := range fd.Type.Results.List {
				if c := ps.escapingContract(ps.p.Info.Types[res.Type].Type); c != nil {
					ps.report(fd.Name.Pos(), fmt.Sprintf(
						"%s returns a pooled %s handle past its owner's scope; callers outside %s cannot see the invalidated-by contract (%s)",
						fd.Name.Name, c.display(), c.pkg.Pkg.Name(), strings.Join(c.invalidatorNames, ",")))
				}
			}
		}
	}
}
