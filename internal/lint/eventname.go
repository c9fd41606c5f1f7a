package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
)

// EventNames is the registry of telemetry event kinds the simulator may
// publish. It is the single source of truth mirrored by the table in
// DESIGN.md §Static analysis (a test asserts the two agree): adding an
// event means adding it here and documenting it there. Keep sorted.
var EventNames = []string{
	"autoscaler.scale",
	"cluster.reconfig",
	"controller.decision",
	"controller.error",
	"controller.hardware",
	"endpoints.update",
	"fault.inject",
	"fault.recover",
	"node.crash",
	"node.drain",
	"node.ready",
	"node.schedule",
	"resilience.breaker",
	"resilience.retry",
	"run.manifest",
	"timeline.cluster",
	"timeline.window",
}

// eventNameRE is the shape every event kind must have: lowercase
// dotted, subsystem first ("controller.decision", "cluster.reconfig").
var eventNameRE = regexp.MustCompile(`^[a-z]+(\.[a-z_]+)+$`)

// checkEventname validates the event-kind argument of every
// telemetry Publish call: it must be a string literal (greppable,
// auditable), match eventNameRE, and appear in EventNames. This catches
// the `controller.decison`-style typo drift that would silently fork an
// event stream consumers filter on.
func checkEventname(m *Module, p *Package, report reporter) {
	registered := make(map[string]bool, len(EventNames))
	for _, n := range EventNames {
		registered[n] = true
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isTelemetryPublish(p.Info, call) || len(call.Args) < 2 {
				return true
			}
			arg := call.Args[1]
			lit, ok := arg.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				report(arg.Pos(), "telemetry event name must be a string literal so the registry check can audit it")
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			switch {
			case !eventNameRE.MatchString(name):
				report(arg.Pos(), fmt.Sprintf("malformed event name %q: must match %s (lowercase dotted, e.g. \"controller.decision\")", name, eventNameRE))
			case !registered[name]:
				report(arg.Pos(), fmt.Sprintf("unregistered event name %q: add it to lint.EventNames and the registry table in DESIGN.md, or fix the typo", name))
			}
			return true
		})
	}
}

// isTelemetryPublish reports whether call is a method call named
// Publish whose receiver is a named type declared in a package named
// "telemetry" (matching the real Recorder and fixture stand-ins alike).
func isTelemetryPublish(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Publish" {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == "telemetry"
}
