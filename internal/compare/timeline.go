package compare

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// This file is the one reader of *.timeline.jsonl artifacts
// (telemetry.WriteTimeline output): soradiff compares what it parses and
// soradash draws it. Lines are decoded with a token scanner rather than
// Unmarshal: fault lines carry two "kind" keys (envelope + fault kind)
// and map decoding would keep the wrong one. Attribute values are kept
// byte-faithful (json.Number, original order) so decision divergences
// render exactly as the run recorded them. The envelope is strict: a
// line whose t_us is not an integer, or whose unit or kind is not a
// string, is an error rather than a silent zero.

// Run is one parsed timeline artifact.
type Run struct {
	Path  string  `json:"path"`
	Units []*Unit `json:"units"`
}

// Unit is the slice of one recorder-tree node's timeline rows.
type Unit struct {
	Path        string                 `json:"path"`
	Identity    []KV                   `json:"identity,omitempty"` // attrs of the run.manifest event, if present
	Cluster     []ClusterWindow        `json:"-"`
	Services    []string               `json:"-"` // first-seen order
	SvcRows     map[string][]SvcWindow `json:"-"`
	Decisions   []Decision             `json:"-"`
	Annotations []Annotation           `json:"-"` // file order
	Faults      []Fault                `json:"-"`
	EndUs       int64                  `json:"-"` // latest t_us of any of the unit's lines (0 if none is later)
}

// ClusterWindow is one timeline.cluster row (TUs marks window end).
type ClusterWindow struct {
	TUs                    int64
	WinS                   float64
	P50, P95, P99          float64
	SpanP99                float64
	Good, Degr, Viol       int64
	Completed, Failed      int64
	Refused                int64
	Retries, Rejected      int64
	Timedout, Lost         int64
	Inflight, BreakersOpen int64
}

// SvcWindow is one timeline.window row for a single service.
type SvcWindow struct {
	TUs                int64
	P50, P95, P99      float64
	Arrivals           int64
	Completions        int64
	Queue, Conc        int64
	Replicas           int64
	Pool               string
	PoolSize, PoolUsed int64
	Util               float64
	Placement          string // pod→node assignment ("" on legacy runs)
}

// Decision is one controller.decision audit event with its attributes
// in publish order, values byte-faithful to the artifact.
type Decision struct {
	TUs   int64 `json:"t_us"`
	Attrs []KV  `json:"attrs"`
}

// Annotation is one point-in-time controller.*, autoscaler.scale or
// cluster.reconfig event with its attributes in publish order.
type Annotation struct {
	TUs   int64
	Kind  string
	Attrs []KV
}

// Fault is one fault.inject / fault.recover annotation. The fault kind
// is the "kind" attribute (the line's second "kind" key).
type Fault struct {
	TUs     int64
	Recover bool
	Attrs   []KV
}

// rawEvent is one decoded timeline line.
type rawEvent struct {
	tUs   int64
	unit  string
	kind  string
	attrs []KV
}

// attr returns the named attribute value or "".
func (e *rawEvent) attr(key string) string {
	v, _ := Lookup(e.attrs, key)
	return v
}

func (e *rawEvent) num(key string) float64 {
	v, _ := strconv.ParseFloat(e.attr(key), 64)
	return v
}

func (e *rawEvent) i64(key string) int64 {
	v, _ := strconv.ParseInt(e.attr(key), 10, 64)
	return v
}

// attrKV converts one scalar JSON token into a KV: numbers verbatim
// (json.Number preserves the artifact's bytes) and marked Number,
// strings unquoted, booleans and null as literals.
func attrKV(key string, tok json.Token) KV {
	switch v := tok.(type) {
	case json.Number:
		return KV{Key: key, Value: v.String(), Number: true}
	case string:
		return KV{Key: key, Value: v}
	case bool:
		return KV{Key: key, Value: strconv.FormatBool(v)}
	default:
		return KV{Key: key, Value: "null"}
	}
}

// parseLine decodes one timeline JSONL line.
func parseLine(line string) (*rawEvent, error) {
	dec := json.NewDecoder(strings.NewReader(line))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("line is not a JSON object")
	}
	ev := &rawEvent{}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key, ok := keyTok.(string)
		if !ok {
			return nil, fmt.Errorf("non-string key %v", keyTok)
		}
		valTok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if _, nested := valTok.(json.Delim); nested {
			return nil, fmt.Errorf("attribute %q is not a scalar", key)
		}
		switch key {
		case "t_us":
			n, ok := valTok.(json.Number)
			if ok {
				ev.tUs, err = n.Int64()
			}
			if !ok || err != nil {
				return nil, fmt.Errorf("t_us %v is not an integer", valTok)
			}
		case "unit":
			if ev.unit, ok = valTok.(string); !ok {
				return nil, fmt.Errorf("unit %v is not a string", valTok)
			}
		case "kind":
			if ev.kind == "" {
				if ev.kind, ok = valTok.(string); !ok {
					return nil, fmt.Errorf("kind %v is not a string", valTok)
				}
				continue
			}
			// Fault lines: the second "kind" key is the fault kind;
			// keep it as an ordered attribute.
			fallthrough
		default:
			ev.attrs = append(ev.attrs, attrKV(key, valTok))
		}
	}
	return ev, nil
}

// annotationKind reports the point-in-time events a dashboard draws as
// markers: controller audit events, autoscaler moves and reconfigs.
func annotationKind(kind string) bool {
	return strings.HasPrefix(kind, "controller.") || kind == "autoscaler.scale" || kind == "cluster.reconfig"
}

// ParseTimeline parses raw timeline JSONL content into a Run. Units
// appear in first-seen order, which the recorder's deterministic walk
// makes stable.
func ParseTimeline(path, raw string) (*Run, error) {
	run := &Run{Path: path}
	byUnit := map[string]*Unit{}
	unitOf := func(p string) *Unit {
		u, ok := byUnit[p]
		if !ok {
			u = &Unit{Path: p, SvcRows: map[string][]SvcWindow{}}
			byUnit[p] = u
			run.Units = append(run.Units, u)
		}
		return u
	}
	for i, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		ev, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("compare: %s line %d: %w", path, i+1, err)
		}
		u := unitOf(ev.unit)
		if ev.tUs > u.EndUs {
			u.EndUs = ev.tUs
		}
		if annotationKind(ev.kind) {
			u.Annotations = append(u.Annotations, Annotation{TUs: ev.tUs, Kind: ev.kind, Attrs: ev.attrs})
		}
		switch ev.kind {
		case "run.manifest":
			u.Identity = ev.attrs
		case "timeline.cluster":
			u.Cluster = append(u.Cluster, ClusterWindow{
				TUs: ev.tUs, WinS: ev.num("win_s"),
				P50: ev.num("p50_ms"), P95: ev.num("p95_ms"), P99: ev.num("p99_ms"),
				SpanP99: ev.num("span_p99_ms"),
				Good:    ev.i64("good"), Degr: ev.i64("degraded"), Viol: ev.i64("violated"),
				Completed: ev.i64("completed"), Failed: ev.i64("failed"), Refused: ev.i64("refused"),
				Retries: ev.i64("retries"), Rejected: ev.i64("rejected"),
				Timedout: ev.i64("timedout"), Lost: ev.i64("lost"),
				Inflight: ev.i64("inflight"), BreakersOpen: ev.i64("breakers_open"),
			})
		case "timeline.window":
			svc := ev.attr("service")
			if svc == "" {
				continue
			}
			if _, seen := u.SvcRows[svc]; !seen {
				u.Services = append(u.Services, svc)
			}
			u.SvcRows[svc] = append(u.SvcRows[svc], SvcWindow{
				TUs: ev.tUs,
				P50: ev.num("p50_ms"), P95: ev.num("p95_ms"), P99: ev.num("p99_ms"),
				Arrivals: ev.i64("arrivals"), Completions: ev.i64("completions"),
				Queue: ev.i64("queue"), Conc: ev.i64("conc"),
				Replicas: ev.i64("replicas"), Pool: ev.attr("pool"),
				PoolSize: ev.i64("pool_size"), PoolUsed: ev.i64("pool_used"),
				Util: ev.num("util"), Placement: ev.attr("placement"),
			})
		case "controller.decision":
			u.Decisions = append(u.Decisions, Decision{TUs: ev.tUs, Attrs: ev.attrs})
		case "fault.inject", "fault.recover":
			u.Faults = append(u.Faults, Fault{TUs: ev.tUs, Recover: ev.kind == "fault.recover", Attrs: ev.attrs})
		}
	}
	return run, nil
}

// LoadTimeline reads and parses a timeline artifact from disk.
func LoadTimeline(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTimeline(path, string(data))
}

// SelectUnit resolves a unit selector against the run: the selector is
// a case-sensitive substring of the unit path, and must match exactly
// one unit that carries cluster windows (the comparable ones). An
// empty selector succeeds only when exactly one such unit exists.
func (r *Run) SelectUnit(selector string) (*Unit, error) {
	var matches []*Unit
	var names []string
	for _, u := range r.Units {
		if len(u.Cluster) == 0 {
			continue
		}
		names = append(names, u.Path)
		if selector == "" || strings.Contains(u.Path, selector) {
			matches = append(matches, u)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return nil, fmt.Errorf("compare: %s: no unit matches %q (units with windows: %s)",
			r.Path, selector, strings.Join(names, ", "))
	default:
		var amb []string
		for _, u := range matches {
			amb = append(amb, u.Path)
		}
		return nil, fmt.Errorf("compare: %s: unit selector %q is ambiguous: %s",
			r.Path, selector, strings.Join(amb, ", "))
	}
}
