// Package lint is soravet's analyzer framework: a hand-rolled static
// analysis pass over the module built on stdlib go/parser, go/ast and
// go/types (deliberately not go/analysis — zero external deps).
//
// Every figure and table this reproduction emits rests on invariants
// that equivalence tests can only catch after the fact: no wall-clock
// reads inside deterministic code, no process-global randomness, no
// map-iteration-ordered output, nil-receiver-safe telemetry, and a
// closed registry of telemetry event names. The checks in this package
// prove those invariants at the source level, so a regression fails
// `verify.sh` loudly instead of silently corrupting artifacts.
//
// # Checks
//
// See Catalog for the machine-readable list. Each check reports
// findings as "file:line:col: [check] message"; `go run ./cmd/soravet
// ./...` exits nonzero on any finding.
//
// # Directives
//
// A deliberate violation opts out with a directive comment carrying the
// check name and a mandatory reason:
//
//	//soravet:allow wallclock progress reporting measures real elapsed time
//
// The directive suppresses matching findings on its own line and on the
// line immediately below (so it works both trailing and standalone).
// Directives are themselves validated: an unknown check name, a missing
// reason, or a directive that suppresses nothing is reported under the
// pseudo-check "directive".
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
	"time"
)

// Finding is one reported violation.
type Finding struct {
	File  string `json:"file"` // slash-separated path relative to the module root
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// String renders the finding in the canonical one-line text form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Msg)
}

// Check is one named analysis pass. Run is invoked once per package
// with a report callback; a nil Run marks a framework-level entry that
// exists only for cataloging (the directive validator).
type Check struct {
	Name string
	Doc  string
	Run  func(m *Module, p *Package, report func(pos token.Pos, msg string))
}

// Catalog returns every check in its stable display order, including
// the framework-level "directive" validator.
func Catalog() []Check {
	return []Check{
		{Name: "wallclock", Doc: "no time.Now/Since/Sleep/timer calls outside //soravet:allow'd wall-time measurement spots; deterministic code uses kernel virtual time", Run: checkWallclock},
		{Name: "globalrand", Doc: "no math/rand or math/rand/v2 function calls outside internal/sim; randomness comes from the kernel's seeded PCG streams", Run: checkGlobalrand},
		{Name: "maporder", Doc: "no range over a map that appends, writes to a sink/builder, or publishes telemetry in iteration order; collect and sort keys first", Run: checkMaporder},
		{Name: "nilrecv", Doc: "exported pointer-receiver methods in package telemetry must begin with a nil-receiver guard (zero-alloc disabled-telemetry contract)", Run: checkNilrecv},
		{Name: "eventname", Doc: "telemetry event names must be lowercase dotted string literals registered in the event-name registry (DESIGN.md)", Run: checkEventname},
		{Name: "poolsafe", Doc: "flow-aware pool-lifetime analysis: no use of a //soravet:pool handle after an invalidating call on any CFG path, no escaping stores into fields/containers, and armed callbacks must nil their stored handle at fire entry", Run: checkPoolsafe},
		{Name: "hotpath", Doc: "no allocation-inducing constructs (closures, fmt, string conversions, boxing, append/make/map literals) reachable from //soravet:hotpath-annotated AllocsPerRun-pinned roots via the static call graph", Run: checkHotpath},
		{Name: "racelist", Doc: "every internal/... package with go statements or sync/atomic usage must appear in verify.sh's go test -race package list", Run: checkRacelist},
		{Name: "deadcode", Doc: "every function and method must be reachable from main/init of some main package or a package-level initializer, via references in live bodies; methods of live types whose name matches any interface method count as live", Run: checkDeadcode},
		{Name: directiveCheck, Doc: "validates //soravet:allow directives and //soravet:pool / //soravet:hotpath annotations: known check name, resolvable grammar, non-empty reason, and actually suppressing a finding (always on)", Run: nil},
	}
}

// Options configures one RunWithStats scan.
type Options struct {
	// Patterns restricts which packages findings are reported for, as
	// go-tool-style patterns relative to the module root: "./...",
	// "./internal/...", "./cmd/soravet". Empty means "./...". The whole
	// module is always loaded and type-checked regardless.
	Patterns []string
	// Checks selects a subset of checks by name; nil/empty runs all.
	// Directive validation (including the unused-directive rule) only
	// runs with the full suite, since a directive for an unselected
	// check would otherwise look unused.
	Checks []string
}

// Stats summarizes one RunWithStats scan for the -stat flag and scripts/lintstat.sh.
// FindingsPerCheck is keyed by check name; encoding/json sorts map keys
// so the one-line summary is deterministic.
type Stats struct {
	Files            int            `json:"files"`
	Packages         int            `json:"packages"`
	FindingsPerCheck map[string]int `json:"findings_per_check"`
	Suppressed       int            `json:"suppressed"`
	WallMS           int64          `json:"wall_ms"`
	Timings          []PkgTiming    `json:"-"` // per-package type-check time, for -v
}

// RunWithStats loads the module rooted at root, applies the selected
// checks to every package matching opts.Patterns, enforces directives,
// and returns the surviving findings sorted by position, plus a scan
// summary.
func RunWithStats(root string, opts Options) ([]Finding, *Stats, error) {
	start := time.Now() //soravet:allow wallclock lint wall-time for the -stat summary, never in artifacts
	m, err := LoadModule(root)
	if err != nil {
		return nil, nil, err
	}
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, nil, err
	}
	allChecks := len(opts.Checks) == 0

	for _, pat := range opts.Patterns {
		hit := false
		for _, p := range m.Pkgs {
			if matchPatterns(p.RelDir, []string{pat}) {
				hit = true
				break
			}
		}
		if !hit {
			return nil, nil, fmt.Errorf("pattern %q matched no packages under %s", pat, m.Root)
		}
	}

	stats := &Stats{FindingsPerCheck: make(map[string]int), Timings: m.Timings}
	for _, p := range m.Pkgs {
		stats.Files += len(p.Files)
	}

	var findings []Finding
	var dirs []*directive
	for _, p := range m.Pkgs {
		if !matchPatterns(p.RelDir, opts.Patterns) {
			continue
		}
		stats.Packages++
		for _, c := range checks {
			if c.Run == nil {
				continue
			}
			c := c
			c.Run(m, p, func(pos token.Pos, msg string) {
				posn := m.Fset.Position(pos)
				findings = append(findings, Finding{
					File:  relFile(m.Root, posn.Filename),
					Line:  posn.Line,
					Col:   posn.Column,
					Check: c.Name,
					Msg:   msg,
				})
			})
		}
		// Malformed //soravet:pool and //soravet:hotpath annotations are
		// directive findings for the package they sit in, independent of
		// which checks ran (like malformed allow directives).
		findings = m.annotations().reportProblems(m, p, findings)
		dirs = append(dirs, scanDirectives(m, p)...)
	}

	var suppressed int
	findings, suppressed = applyDirectives(findings, dirs, allChecks)
	stats.Suppressed = suppressed
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	for _, f := range findings {
		stats.FindingsPerCheck[f.Check]++
	}
	stats.WallMS = time.Since(start).Milliseconds() //soravet:allow wallclock lint wall-time for the -stat summary, never in artifacts
	return findings, stats, nil
}

// selectChecks resolves names against the catalog, defaulting to the
// full suite.
func selectChecks(names []string) ([]Check, error) {
	all := Catalog()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]Check, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	out := make([]Check, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (run soravet -list for the catalog)", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// matchPatterns reports whether a package at relDir (slash-separated,
// "." for the module root) matches any of the go-style patterns.
func matchPatterns(relDir string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(strings.TrimSpace(pat), "./")
		if pat == "" {
			pat = "."
		}
		pat = strings.TrimSuffix(pat, "/")
		if pat == "..." || pat == "." && relDir == "." {
			return true
		}
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if relDir == base || strings.HasPrefix(relDir, base+"/") {
				return true
			}
			continue
		}
		if relDir == pat {
			return true
		}
	}
	return false
}

// relFile converts an absolute source path into the finding-relative
// slash form.
func relFile(root, file string) string {
	if rel, ok := strings.CutPrefix(file, root+"/"); ok {
		return rel
	}
	return file
}

// WriteText writes findings one per line in the canonical text form.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes findings as a JSON array (machine-readable -json
// mode). The element order matches the text output.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}
