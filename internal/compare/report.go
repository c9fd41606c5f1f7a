package compare

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Report rendering. Both forms are deterministic: the text report uses
// fixed-width fixed-precision formatting, the JSON report marshals the
// map-free Result struct. Goldens in cmd/soradiff pin both.

// ms renders a millisecond quantity with fixed precision.
func ms(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// pct renders a fraction as a percentage with one decimal.
func pct(v float64) string { return strconv.FormatFloat(v*100, 'f', 1, 64) + "%" }

// deltaPct renders the relative change from a to b, or "n/a" when a is
// zero.
func deltaPct(a, b float64) string {
	if a == 0 {
		return "n/a"
	}
	return strconv.FormatFloat((b-a)/a*100, 'f', 1, 64) + "%"
}

// tSec renders a microsecond virtual timestamp as seconds.
func tSec(tUs int64) string {
	return strconv.FormatFloat(float64(tUs)/1e6, 'f', 1, 64) + "s"
}

// WriteJSON renders the comparison as indented JSON.
func WriteJSON(w io.Writer, r *Result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteText renders the human-readable report.
func WriteText(w io.Writer, r *Result) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("soradiff: %s (A) vs %s (B)\n", r.LabelA, r.LabelB)
	writeIdentity(w, "A", r.LabelA, r.UnitA, r.IdentityA)
	writeIdentity(w, "B", r.LabelB, r.UnitB, r.IdentityB)
	p("\n")

	p("windows: %d aligned (window %gs", len(r.Aligned), r.WindowSec)
	if r.UnmatchedA > 0 || r.UnmatchedB > 0 {
		p("; unmatched: A %d, B %d", r.UnmatchedA, r.UnmatchedB)
	}
	p(")\n\n")

	p("windowed p99 distribution (per-service + cluster rows, sketch-merged):\n")
	p("  %-6s %12s %12s %12s\n", "", "A", "B", "delta")
	for _, q := range []struct {
		name string
		a, b float64
	}{
		{"p50", r.SummaryA.P50, r.SummaryB.P50},
		{"p95", r.SummaryA.P95, r.SummaryB.P95},
		{"p99", r.SummaryA.P99, r.SummaryB.P99},
	} {
		p("  %-6s %10sms %10sms %12s\n", q.name, ms(q.a), ms(q.b), deltaPct(q.a, q.b))
	}
	p("  samples: A %d, B %d\n\n", r.SummaryA.Count, r.SummaryB.Count)

	p("goodput split (aligned span totals):\n")
	p("  %-10s %12s %12s %12s\n", "", "A", "B", "delta")
	for _, g := range []struct {
		name string
		a, b float64
	}{
		{"good", r.GoodputA.GoodFrac, r.GoodputB.GoodFrac},
		{"degraded", r.GoodputA.DegradedFrac, r.GoodputB.DegradedFrac},
		{"violated", r.GoodputA.ViolatedFrac, r.GoodputB.ViolatedFrac},
	} {
		p("  %-10s %12s %12s %+11.1fpp\n", g.name, pct(g.a), pct(g.b), (g.b-g.a)*100)
	}
	p("\n")

	if len(r.Aligned) > 0 {
		p("per-window deltas:\n")
		p("  %8s %10s %10s %10s %7s %7s %7s\n", "t", "p99 A", "p99 B", "dp99", "good A", "good B", "dviol")
		for _, wd := range r.Aligned {
			p("  %8s %8sms %8sms %8sms %7d %7d %+7d\n",
				tSec(wd.TUs), ms(wd.P99A), ms(wd.P99B), ms(wd.P99B-wd.P99A),
				wd.GoodA, wd.GoodB, wd.ViolB-wd.ViolA)
		}
		p("\n")
	}

	if len(r.Services) > 0 {
		p("service knob divergence (first window where B differs from A):\n")
		p("  %-16s %8s %14s %14s %14s %9s %9s\n", "service", "windows", "replicas", "pool", "placement", "max dRepl", "max dPool")
		for _, s := range r.Services {
			p("  %-16s %8d %14s %14s %14s %+9d %+9d\n",
				s.Service, s.Windows, divAt(s.FirstReplicaTUs), divAt(s.FirstPoolTUs),
				divAt(s.FirstPlacementTUs), s.MaxReplicaDelta, s.MaxPoolDelta)
		}
		p("\n")
	}

	if len(r.Phases) > 0 {
		p("phase blame diff (blamed virtual time, biggest mover first):\n")
		p("  %-16s %12s %12s %12s %10s\n", "phase", "A us", "B us", "delta us", "delta")
		for _, ph := range r.Phases {
			p("  %-16s %12d %12d %+12d %10s\n",
				ph.Phase, ph.AUs, ph.BUs, ph.DeltaUs, deltaPct(float64(ph.AUs), float64(ph.BUs)))
		}
		p("\n")
	}

	p("controller decisions: A %d, B %d\n", r.DecisionsA, r.DecisionsB)
	switch {
	case r.Divergence == nil && r.DecisionsA == 0 && r.DecisionsB == 0:
		p("no controller decisions on either side (static or autoscaler-only runs)\n")
	case r.Divergence == nil:
		p("decision streams identical: no divergence\n")
	default:
		writeDivergence(w, r.Divergence)
	}
	return nil
}

// divAt renders a first-divergence timestamp or "-" for never.
func divAt(tUs int64) string {
	if tUs < 0 {
		return "-"
	}
	return "@" + tSec(tUs)
}

// writeIdentity prints one side's identity block.
func writeIdentity(w io.Writer, side, label, unit string, id []KV) {
	fmt.Fprintf(w, "  %s: %s  unit=%s", side, label, unit)
	for _, kv := range id {
		fmt.Fprintf(w, " %s=%s", kv.Key, kv.Value)
	}
	fmt.Fprintf(w, "\n")
}

// writeDivergence prints the first divergent decision side by side:
// the union of attribute keys in A's publish order (B-only keys after),
// with a marker on every differing row.
func writeDivergence(w io.Writer, d *DecisionDivergence) {
	switch {
	case d.TUsB < 0:
		fmt.Fprintf(w, "first divergence at decision #%d: A decides at t=%s, B has no further decisions\n", d.Index, tSec(d.TUsA))
	case d.TUsA < 0:
		fmt.Fprintf(w, "first divergence at decision #%d: B decides at t=%s, A has no further decisions\n", d.Index, tSec(d.TUsB))
	default:
		fmt.Fprintf(w, "first divergence at decision #%d: A t=%s, B t=%s\n", d.Index, tSec(d.TUsA), tSec(d.TUsB))
	}
	var keys []string
	seen := map[string]bool{}
	for _, kv := range d.AttrsA {
		if !seen[kv.Key] {
			seen[kv.Key] = true
			keys = append(keys, kv.Key)
		}
	}
	for _, kv := range d.AttrsB {
		if !seen[kv.Key] {
			seen[kv.Key] = true
			keys = append(keys, kv.Key)
		}
	}
	fmt.Fprintf(w, "  %-18s %20s %20s\n", "attr", "A", "B")
	for _, k := range keys {
		va, okA := Lookup(d.AttrsA, k)
		vb, okB := Lookup(d.AttrsB, k)
		if !okA {
			va = "-"
		}
		if !okB {
			vb = "-"
		}
		mark := " "
		if va != vb {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %-18s %20s %20s\n", mark, k, va, vb)
	}
}
