// Package telemetry is the structured observability substrate for the
// simulator: a deterministic, zero-overhead-when-disabled event bus
// that components publish to, plus pluggable sinks (JSONL event log,
// Prometheus-style metrics snapshot, Chrome trace-event export — see
// sinks.go).
//
// # Recorder tree
//
// A *Recorder is a node in a tree that mirrors the fan-out structure of
// a run. The root represents one experiment; Group adds a child in
// creation order (one per sequential phase or fan-out site); Unit adds
// an index-keyed child (one per parallel work item). Exports always
// walk the tree in a deterministic order — a node's own data first,
// then groups in creation order, then units in ascending index order —
// so artifacts are byte-identical between serial and parallel runs of
// the same seed regardless of goroutine scheduling.
//
// Every method is safe on a nil receiver and returns immediately, so a
// disabled run (nil recorder threaded everywhere) pays only a pointer
// test. Publishers that construct attributes must still guard the call
// site to keep the disabled path allocation-free:
//
//	if tel := c.Telemetry(); tel != nil {
//		tel.Publish(now, "cluster.reconfig", telemetry.String("service", name))
//	}
//
// All methods are mutex-guarded per node, so concurrent publishers
// (parallel experiment units, each owning a distinct Unit subtree) are
// race-free.
package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"sora/internal/sim"
)

// attrKind discriminates the typed payload of an Attr.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one key/value attribute of an event. The value is stored in
// typed fields (no interface boxing) so building attributes never
// allocates beyond the variadic slice.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
	f    float64
}

// String returns a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: kindString, str: v} }

// Int returns an integer-valued attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, num: int64(v)} }

// Int64 returns an integer-valued attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// Float returns a float-valued attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr {
	n := int64(0)
	if v {
		n = 1
	}
	return Attr{Key: key, kind: kindBool, num: n}
}

// Dur returns a duration attribute, encoded as fractional milliseconds
// (key conventionally carries a "_ms" suffix).
func Dur(key string, v time.Duration) Attr {
	return Attr{Key: key, kind: kindFloat, f: float64(v) / float64(time.Millisecond)}
}

// Value renders the attribute value as its JSON encoding.
func (a Attr) Value() string {
	switch a.kind {
	case kindString:
		return quoteJSON(a.str)
	case kindInt:
		return strconv.FormatInt(a.num, 10)
	case kindFloat:
		return formatFloat(a.f)
	default: // kindBool
		if a.num != 0 {
			return "true"
		}
		return "false"
	}
}

// Event is one structured occurrence at a point in virtual time.
type Event struct {
	At    sim.Time
	Kind  string
	Attrs []Attr
}

// SpanSample is a flattened span recorded for the Chrome trace export.
type SpanSample struct {
	Trace      uint64
	Type       string
	Service    string
	Instance   string
	Depth      int
	Start, End sim.Time
}

// Metric is one named counter or gauge value.
type Metric struct {
	Name  string
	Value float64
}

// Recorder is one node of the telemetry tree. See the package comment
// for the determinism contract. The zero value is not useful; create
// roots with NewRecorder and children with Group/Unit.
type Recorder struct {
	label string

	mu         sync.Mutex
	events     []Event
	spans      []SpanSample
	counters   []Metric
	counterIdx map[string]int
	gauges     []Metric
	gaugeIdx   map[string]int
	groups     []*Recorder
	groupSeen  map[string]int
	units      map[int]*Recorder
}

// NewRecorder returns a root recorder whose label becomes the leading
// path segment of every exported record beneath it.
func NewRecorder(label string) *Recorder {
	return &Recorder{label: label}
}

// Label reports the node's own label ("" on nil).
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Group returns a new child recorder appended in creation order. Labels
// are deduplicated with a "#N" suffix so repeated phases keep distinct
// export paths. Returns nil on a nil receiver.
func (r *Recorder) Group(label string) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.groupSeen == nil {
		r.groupSeen = make(map[string]int)
	}
	r.groupSeen[label]++
	if n := r.groupSeen[label]; n > 1 {
		label = label + "#" + strconv.Itoa(n)
	}
	g := &Recorder{label: label}
	r.groups = append(r.groups, g)
	return g
}

// Unit returns the child recorder for parallel work item i, creating it
// on first use. Units export in ascending index order regardless of the
// order Unit was called in, which is what makes parallel fan-out
// deterministic. Returns nil on a nil receiver.
func (r *Recorder) Unit(i int, label string) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.units == nil {
		r.units = make(map[int]*Recorder)
	}
	if u, ok := r.units[i]; ok {
		return u
	}
	if label == "" {
		label = strconv.Itoa(i)
	}
	u := &Recorder{label: label}
	r.units[i] = u
	return u
}

// Publish appends a structured event. No-op on a nil receiver.
func (r *Recorder) Publish(at sim.Time, kind string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Event{At: at, Kind: kind, Attrs: attrs})
	r.mu.Unlock()
}

// AddCounter adds delta to the named monotonic counter, creating it in
// first-touch order. No-op on a nil receiver.
func (r *Recorder) AddCounter(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counterIdx == nil {
		r.counterIdx = make(map[string]int)
	}
	if i, ok := r.counterIdx[name]; ok {
		r.counters[i].Value += delta
		return
	}
	r.counterIdx[name] = len(r.counters)
	r.counters = append(r.counters, Metric{Name: name, Value: delta})
}

// SetGauge sets the named gauge to v, creating it in first-touch order.
// No-op on a nil receiver.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gaugeIdx == nil {
		r.gaugeIdx = make(map[string]int)
	}
	if i, ok := r.gaugeIdx[name]; ok {
		r.gauges[i].Value = v
		return
	}
	r.gaugeIdx[name] = len(r.gauges)
	r.gauges = append(r.gauges, Metric{Name: name, Value: v})
}

// AddSpan records one span sample for the Chrome trace export. No-op on
// a nil receiver.
func (r *Recorder) AddSpan(s SpanSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Events returns a snapshot of the node's own events (not children's).
//
//soravet:allow deadcode (b) cross-package observer: tests in cluster, core, experiment, fault and node read recorded events through it
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// CounterTotals aggregates every counter in the subtree by name,
// summing values across nodes. Names appear in first-seen export order
// (the deterministic tree walk — node first, groups in creation order,
// units in ascending index order), so the result is byte-stable between
// serial and parallel runs of the same seed; run manifests record it as
// the closing counter state. Returns nil on a nil receiver.
func (r *Recorder) CounterTotals() []Metric {
	if r == nil {
		return nil
	}
	var out []Metric
	idx := make(map[string]int)
	r.walk("", func(path string, rec *Recorder) {
		rec.mu.Lock()
		for _, m := range rec.counters {
			if i, ok := idx[m.Name]; ok {
				out[i].Value += m.Value
				continue
			}
			idx[m.Name] = len(out)
			out = append(out, m)
		}
		rec.mu.Unlock()
	})
	return out
}

// walk visits the subtree in export order: the node itself, then groups
// in creation order, then units in ascending index order, recursively.
// prefix is the parent path ("" at the root).
func (r *Recorder) walk(prefix string, visit func(path string, rec *Recorder)) {
	if r == nil {
		return
	}
	path := r.label
	if prefix != "" {
		path = prefix + "/" + r.label
	}
	visit(path, r)
	r.mu.Lock()
	groups := make([]*Recorder, len(r.groups))
	copy(groups, r.groups)
	idx := make([]int, 0, len(r.units))
	for i := range r.units {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	units := make([]*Recorder, 0, len(idx))
	for _, i := range idx {
		units = append(units, r.units[i])
	}
	r.mu.Unlock()
	for _, g := range groups {
		g.walk(path, visit)
	}
	for _, u := range units {
		u.walk(path, visit)
	}
}

// formatFloat renders a float deterministically for all sinks. NaN and
// infinities (not representable in JSON) collapse to 0.
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
