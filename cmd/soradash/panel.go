package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sora/internal/compare"
)

// The drawing model. compare.ParseTimeline reads the file; a panel adds
// what only the dashboard needs on top of one parsed unit: times in
// seconds, fault windows paired from inject/recover events, and hover
// labels for the annotation markers.

// panel is one unit's chart data.
type panel struct {
	*compare.Unit
	maxT   float64 // seconds
	marks  []marker
	faults []faultWin
}

// marker is a point-in-time annotation (controller decision, reconfig,
// autoscaler move).
type marker struct {
	t     float64
	kind  string
	label string
}

// faultWin is one shaded fault window; open windows close at the unit's
// last timestamp.
type faultWin struct {
	t0, t1 float64
	kind   string
	target string
	open   bool
}

// sec converts a timeline timestamp to seconds.
func sec(tUs int64) float64 { return float64(tUs) / 1e6 }

func newPanel(u *compare.Unit) *panel {
	p := &panel{Unit: u, maxT: sec(u.EndUs)}
	for _, f := range u.Faults {
		kind, _ := compare.Lookup(f.Attrs, "kind")
		target, _ := compare.Lookup(f.Attrs, "target")
		if !f.Recover {
			p.faults = append(p.faults, faultWin{t0: sec(f.TUs), kind: kind, target: target, open: true})
			continue
		}
		// Close the oldest open window of the same kind+target.
		for j := range p.faults {
			fw := &p.faults[j]
			if fw.open && fw.kind == kind && fw.target == target {
				fw.t1, fw.open = sec(f.TUs), false
				break
			}
		}
	}
	for j := range p.faults {
		if p.faults[j].open {
			p.faults[j].t1 = p.maxT
		}
	}
	for _, a := range u.Annotations {
		p.marks = append(p.marks, marker{t: sec(a.TUs), kind: a.Kind, label: markerLabel(a)})
	}
	return p
}

// markerLabel renders an annotation's attributes as "k=v" pairs in
// sorted key order for the hover tooltip, numbers in Go's shortest
// float64 form (so 1000000 reads 1e+06).
func markerLabel(a compare.Annotation) string {
	kvs := append([]compare.KV(nil), a.Attrs...)
	sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	var b strings.Builder
	b.WriteString(a.Kind)
	for _, kv := range kvs {
		v := kv.Value
		if kv.Number {
			f, _ := strconv.ParseFloat(v, 64)
			v = fmt.Sprint(f)
		}
		fmt.Fprintf(&b, " %s=%s", kv.Key, v)
	}
	return b.String()
}
