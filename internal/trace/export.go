package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// This file implements trace serialization in a Jaeger-inspired JSON
// shape, standing in for the paper's "Request Tracing Management" layer
// (OpenTracing-compliant collection into a trace warehouse). Exported
// traces can be archived, diffed across runs, or fed to external
// analysis tooling (cmd/tracedig); ImportAll round-trips them back into
// Trace values.
//
// Timestamps are nanoseconds of virtual time: the latency-attribution
// profiler requires an exported archive to reproduce the in-process
// blame profile bit-for-bit, so the archive must not round the kernel's
// native resolution.

// SpanRecord is the serialized form of one span.
type SpanRecord struct {
	Service   string       `json:"service"`
	Instance  string       `json:"instance,omitempty"`
	Depth     int          `json:"depth"`
	ArrivalNs int64        `json:"arrival_ns"`
	StartNs   int64        `json:"start_ns"`
	EndNs     int64        `json:"end_ns"`
	BlockedNs int64        `json:"blocked_ns,omitempty"`
	DemandNs  int64        `json:"demand_ns,omitempty"`
	CPUNs     int64        `json:"cpu_ns,omitempty"`
	RetryNs   int64        `json:"retry_wait_ns,omitempty"`
	BreakerNs int64        `json:"breaker_wait_ns,omitempty"`
	Failed    bool         `json:"failed,omitempty"`
	Degraded  bool         `json:"degraded,omitempty"`
	Abandoned bool         `json:"abandoned,omitempty"`
	Children  []SpanRecord `json:"children,omitempty"`
}

// TraceRecord is the serialized form of one trace.
type TraceRecord struct {
	ID   ID         `json:"id"`
	Type string     `json:"type"`
	Root SpanRecord `json:"root"`
}

// toRecord serializes the tree under s, whose ids index names.
func toRecord(s *Span, names *Names) SpanRecord {
	rec := SpanRecord{
		Service:   s.Service,
		Instance:  s.Instance(names),
		Depth:     int(s.Depth),
		ArrivalNs: int64(s.Arrival),
		StartNs:   int64(s.Start),
		EndNs:     int64(s.End),
		BlockedNs: int64(s.Blocked),
		DemandNs:  int64(s.Demand),
		CPUNs:     int64(s.CPU),
		RetryNs:   int64(s.RetryWait),
		BreakerNs: int64(s.BreakerWait),
		Failed:    s.Failed,
		Degraded:  s.Degraded,
		Abandoned: s.Abandoned,
	}
	for _, c := range s.Children {
		rec.Children = append(rec.Children, toRecord(c, names))
	}
	return rec
}

// fromRecord rebuilds the span tree of rec, stamping each span with its
// ids in names; pods maps the pod names met so far to their ids.
// Span.Depth is an int32, so a record whose depth does not fit is
// rejected rather than truncated.
func fromRecord(rec SpanRecord, names *Names, pods map[string]int32) (*Span, error) {
	if rec.Depth < math.MinInt32 || rec.Depth > math.MaxInt32 {
		return nil, fmt.Errorf("span %q: depth %d out of range", rec.Service, rec.Depth)
	}
	s := &Span{
		Service:     rec.Service,
		Depth:       int32(rec.Depth),
		Arrival:     time.Duration(rec.ArrivalNs),
		Start:       time.Duration(rec.StartNs),
		End:         time.Duration(rec.EndNs),
		Blocked:     time.Duration(rec.BlockedNs),
		Demand:      time.Duration(rec.DemandNs),
		CPU:         time.Duration(rec.CPUNs),
		RetryWait:   time.Duration(rec.RetryNs),
		BreakerWait: time.Duration(rec.BreakerNs),
		Failed:      rec.Failed,
		Degraded:    rec.Degraded,
		Abandoned:   rec.Abandoned,
	}
	pod := int32(-1)
	if rec.Instance != "" {
		id, ok := pods[rec.Instance]
		if !ok {
			id = names.AddInstance(rec.Instance)
			pods[rec.Instance] = id
		}
		pod = id
	}
	s.SetIDs(names.service(rec.Service), pod)
	for _, c := range rec.Children {
		child, err := fromRecord(c, names, pods)
		if err != nil {
			return nil, err
		}
		s.Children = append(s.Children, child)
	}
	return s, nil
}

// Export writes the trace as one JSON object with nanosecond virtual-time
// fields. A compacted trace is exported from the tree its records
// materialize, so the bytes do not depend on the form the trace is in.
func Export(w io.Writer, t *Trace) error {
	var root *Span
	if t != nil {
		root = t.Tree()
	}
	if root == nil {
		return fmt.Errorf("trace: cannot export empty trace")
	}
	rec := TraceRecord{ID: t.ID, Type: t.Type, Root: toRecord(root, t.Names)}
	enc := json.NewEncoder(w)
	return enc.Encode(rec)
}

// ExportAll writes every trace as JSON Lines (one object per line), the
// shape bulk trace-archive tooling expects.
func ExportAll(w io.Writer, traces []*Trace) error {
	for i, t := range traces {
		if err := Export(w, t); err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
	}
	return nil
}

// ImportAll reads JSON Lines until EOF. The traces share one name
// table.
func ImportAll(r io.Reader) ([]*Trace, error) {
	var out []*Trace
	names := NewNames(nil)
	pods := make(map[string]int32)
	dec := json.NewDecoder(r)
	for {
		var rec TraceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: import %d: %w", len(out), err)
		}
		if rec.Root.Service == "" {
			return nil, fmt.Errorf("trace: import %d: record has no root service", len(out))
		}
		root, err := fromRecord(rec.Root, names, pods)
		if err != nil {
			return nil, fmt.Errorf("trace: import %d: %w", len(out), err)
		}
		out = append(out, &Trace{ID: rec.ID, Type: rec.Type, Root: root, Names: names})
	}
}
