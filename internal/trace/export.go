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
// native resolution. Archives written by the earlier microsecond format
// (*_us fields) are still importable; Export always writes the
// nanosecond form.

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
	Dropped   bool         `json:"dropped,omitempty"`
	Failed    bool         `json:"failed,omitempty"`
	Degraded  bool         `json:"degraded,omitempty"`
	Abandoned bool         `json:"abandoned,omitempty"`
	Children  []SpanRecord `json:"children,omitempty"`

	// Legacy microsecond fields: read by ImportAll for archives produced
	// before the nanosecond format, never written by Export.
	ArrivalUs int64 `json:"arrival_us,omitempty"`
	StartUs   int64 `json:"start_us,omitempty"`
	EndUs     int64 `json:"end_us,omitempty"`
	BlockedUs int64 `json:"blocked_us,omitempty"`
}

// TraceRecord is the serialized form of one trace.
type TraceRecord struct {
	ID   ID         `json:"id"`
	Type string     `json:"type"`
	Root SpanRecord `json:"root"`
}

func toRecord(s *Span) SpanRecord {
	rec := SpanRecord{
		Service:   s.Service,
		Instance:  s.Instance,
		Depth:     int(s.Depth),
		ArrivalNs: int64(s.Arrival),
		StartNs:   int64(s.Start),
		EndNs:     int64(s.End),
		BlockedNs: int64(s.Blocked),
		DemandNs:  int64(s.Demand),
		CPUNs:     int64(s.CPU),
		RetryNs:   int64(s.RetryWait),
		BreakerNs: int64(s.BreakerWait),
		Dropped:   s.Dropped,
		Failed:    s.Failed,
		Degraded:  s.Degraded,
		Abandoned: s.Abandoned,
	}
	for _, c := range s.Children {
		rec.Children = append(rec.Children, toRecord(c))
	}
	return rec
}

// legacy reports whether the record was written by the microsecond
// format: no nanosecond timestamps but at least one microsecond field.
func (rec *SpanRecord) legacy() bool {
	return rec.ArrivalNs == 0 && rec.StartNs == 0 && rec.EndNs == 0 &&
		(rec.ArrivalUs != 0 || rec.StartUs != 0 || rec.EndUs != 0)
}

// fromRecord rebuilds the span tree of rec. Span.Depth is an int32, so
// a record whose depth does not fit is rejected rather than truncated.
func fromRecord(rec SpanRecord) (*Span, error) {
	if rec.Depth < math.MinInt32 || rec.Depth > math.MaxInt32 {
		return nil, fmt.Errorf("span %q: depth %d out of range", rec.Service, rec.Depth)
	}
	s := &Span{
		Service:     rec.Service,
		Instance:    rec.Instance,
		Depth:       int32(rec.Depth),
		Arrival:     time.Duration(rec.ArrivalNs),
		Start:       time.Duration(rec.StartNs),
		End:         time.Duration(rec.EndNs),
		Blocked:     time.Duration(rec.BlockedNs),
		Demand:      time.Duration(rec.DemandNs),
		CPU:         time.Duration(rec.CPUNs),
		RetryWait:   time.Duration(rec.RetryNs),
		BreakerWait: time.Duration(rec.BreakerNs),
		Dropped:     rec.Dropped,
		Failed:      rec.Failed,
		Degraded:    rec.Degraded,
		Abandoned:   rec.Abandoned,
	}
	if rec.legacy() {
		s.Arrival = time.Duration(rec.ArrivalUs) * time.Microsecond
		s.Start = time.Duration(rec.StartUs) * time.Microsecond
		s.End = time.Duration(rec.EndUs) * time.Microsecond
		s.Blocked = time.Duration(rec.BlockedUs) * time.Microsecond
	}
	for _, c := range rec.Children {
		child, err := fromRecord(c)
		if err != nil {
			return nil, err
		}
		s.Children = append(s.Children, child)
	}
	return s, nil
}

// Export writes the trace as one JSON object with nanosecond virtual-time
// fields.
func Export(w io.Writer, t *Trace) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("trace: cannot export empty trace")
	}
	rec := TraceRecord{ID: t.ID, Type: t.Type, Root: toRecord(t.Root)}
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

// ImportAll reads JSON Lines until EOF.
func ImportAll(r io.Reader) ([]*Trace, error) {
	var out []*Trace
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
		root, err := fromRecord(rec.Root)
		if err != nil {
			return nil, fmt.Errorf("trace: import %d: %w", len(out), err)
		}
		out = append(out, &Trace{ID: rec.ID, Type: rec.Type, Root: root})
	}
}
