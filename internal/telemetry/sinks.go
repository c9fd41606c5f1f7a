package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file holds the export sinks. All three are deterministic: they
// hand-roll their encodings (fixed key order, strconv float formatting)
// rather than going through encoding/json, whose map iteration and
// reflection ordering are not part of any stability contract we want to
// depend on for byte-identical serial/parallel artifacts.

// quoteJSON renders s as a JSON string literal.
func quoteJSON(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c == '\n':
			b.WriteString(`\n`)
		case c == '\t':
			b.WriteString(`\t`)
		case c == '\r':
			b.WriteString(`\r`)
		case c < 0x20:
			b.WriteString(`\u00`)
			const hex = "0123456789abcdef"
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// WriteJSONL writes every event in the tree as one JSON object per
// line: {"t_us":...,"unit":...,"kind":...,<attrs in publish order>}.
// Events appear in export order (see Recorder.walk), and within a node
// in publish order, i.e. virtual-time order per unit.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.writeJSONL(w, nil)
}

// writeJSONL is the one JSONL line writer: WriteJSONL passes no filter,
// WriteTimeline keeps the kinds timelineKind accepts.
func (r *Recorder) writeJSONL(w io.Writer, keep func(kind string) bool) error {
	bw := bufio.NewWriter(w)
	r.walk("", func(path string, rec *Recorder) {
		rec.mu.Lock()
		events := rec.events
		rec.mu.Unlock()
		for _, ev := range events {
			if keep != nil && !keep(ev.Kind) {
				continue
			}
			bw.WriteString(`{"t_us":`)
			bw.WriteString(strconv.FormatInt(ev.At.Microseconds(), 10))
			bw.WriteString(`,"unit":`)
			bw.WriteString(quoteJSON(path))
			bw.WriteString(`,"kind":`)
			bw.WriteString(quoteJSON(ev.Kind))
			for _, a := range ev.Attrs {
				bw.WriteByte(',')
				bw.WriteString(quoteJSON(a.Key))
				bw.WriteByte(':')
				bw.WriteString(a.Value())
			}
			bw.WriteString("}\n")
		}
	})
	return bw.Flush()
}

// escapeLabelValue escapes a Prometheus label value per the text
// exposition format: backslash, double quote and newline become \\, \"
// and \n. Backslash must be handled first so an input backslash is
// never re-escaped by a later rule.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// metricSample is one flattened (metric, unit) pair collected for the
// Prometheus snapshot.
type metricSample struct {
	name    string
	unit    string
	counter bool
	value   float64
}

// WriteMetrics writes the end-of-run counter/gauge state of the whole
// tree in Prometheus text exposition format. Metric names may embed
// label syntax (e.g. `sora_service_completed_total{service="cart"}`); the
// writer appends a `unit` label carrying the node path. Families are
// grouped under one `# TYPE` line each, in first-seen export order.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	var samples []metricSample
	r.walk("", func(path string, rec *Recorder) {
		rec.mu.Lock()
		for _, m := range rec.counters {
			samples = append(samples, metricSample{name: m.Name, unit: path, counter: true, value: m.Value})
		}
		for _, m := range rec.gauges {
			samples = append(samples, metricSample{name: m.Name, unit: path, value: m.Value})
		}
		rec.mu.Unlock()
	})
	// Group samples by family (the metric name before any "{"), keeping
	// first-seen order for families and samples alike.
	type family struct {
		base    string
		counter bool
		rows    []metricSample
	}
	var families []*family
	byBase := make(map[string]*family)
	for _, s := range samples {
		base := s.name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		f, ok := byBase[base]
		if !ok {
			f = &family{base: base, counter: s.counter}
			byBase[base] = f
			families = append(families, f)
		}
		f.rows = append(f.rows, s)
	}
	bw := bufio.NewWriter(w)
	for _, f := range families {
		typ := "gauge"
		if f.counter {
			typ = "counter"
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.base, typ)
		for _, s := range f.rows {
			unitLabel := `unit="` + escapeLabelValue(s.unit) + `"`
			var line string
			if i := strings.IndexByte(s.name, '{'); i >= 0 {
				// name already carries labels: splice unit before "}".
				line = strings.TrimSuffix(s.name, "}") + "," + unitLabel + "}"
			} else {
				line = s.name + "{" + unitLabel + "}"
			}
			fmt.Fprintf(bw, "%s %s\n", line, formatFloat(s.value))
		}
	}
	return bw.Flush()
}

// WriteChromeTrace writes the tree as a Chrome trace-event JSON object
// ({"traceEvents":[...]}) loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each tree node with data becomes a process (pid in
// export order, process_name = node path); span samples become "X"
// complete events on one thread per service (tid in first-seen order);
// structured events become "i" instant events on tid 0, with their
// attributes as args. Timestamps are virtual microseconds.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}
	pid := 0
	r.walk("", func(path string, rec *Recorder) {
		rec.mu.Lock()
		events := rec.events
		spans := rec.spans
		rec.mu.Unlock()
		if len(events) == 0 && len(spans) == 0 {
			return
		}
		pid++
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, quoteJSON(path)))
		// One thread per service, tid 1.. in first-seen order; tid 0 is
		// reserved for the controller/cluster event stream.
		tids := map[string]int{}
		tidOf := func(service string) int {
			t, ok := tids[service]
			if !ok {
				t = len(tids) + 1
				tids[service] = t
				emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`, pid, t, quoteJSON(service)))
			}
			return t
		}
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"events"}}`, pid))
		for _, s := range spans {
			dur := (s.End - s.Start).Microseconds()
			if dur < 0 {
				dur = 0
			}
			emit(fmt.Sprintf(`{"name":%s,"cat":"span","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"trace":%d,"type":%s,"instance":%s,"depth":%d}}`,
				quoteJSON(s.Service), s.Start.Microseconds(), dur, pid, tidOf(s.Service), s.Trace, quoteJSON(s.Type), quoteJSON(s.Instance), s.Depth))
		}
		for _, ev := range events {
			var args strings.Builder
			args.WriteByte('{')
			for i, a := range ev.Attrs {
				if i > 0 {
					args.WriteByte(',')
				}
				args.WriteString(quoteJSON(a.Key))
				args.WriteByte(':')
				args.WriteString(a.Value())
			}
			args.WriteByte('}')
			emit(fmt.Sprintf(`{"name":%s,"cat":"event","ph":"i","s":"t","ts":%d,"pid":%d,"tid":0,"args":%s}`,
				quoteJSON(ev.Kind), ev.At.Microseconds(), pid, args.String()))
		}
	})
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// timelineKind reports whether an event kind belongs on the flight-
// recorder timeline export: the windowed `timeline.*` rows plus the
// point-in-time annotations that give them causal context (controller
// decisions and errors, hardware and autoscaler moves, reconfigs, fault
// windows).
func timelineKind(kind string) bool {
	if strings.HasPrefix(kind, "timeline.") {
		return true
	}
	switch kind {
	case "controller.decision", "controller.error", "controller.hardware",
		"autoscaler.scale", "cluster.reconfig",
		"fault.inject", "fault.recover",
		"run.manifest":
		// run.manifest is the run's self-identification record (see
		// internal/compare): exporting it makes every timeline artifact
		// carry the (seed, config, strategy) that produced it, which is
		// what lets soradiff align two runs without out-of-band context.
		return true
	}
	return false
}

// WriteTimeline writes the tree's flight-recorder timeline as JSONL: the
// same line format as WriteJSONL, filtered to timeline rows and their
// annotation events (see timelineKind). Export order is the
// deterministic tree walk, so the artifact is byte-identical between
// serial and parallel runs of the same seed.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.writeJSONL(w, timelineKind)
}

// WriteFiles writes all three artifacts for this tree under dir:
// <base>.events.jsonl, <base>.metrics.prom, and <base>.trace.json
// (Perfetto-loadable). The directory is created if missing.
func (r *Recorder) WriteFiles(dir, base string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".events.jsonl", r.WriteJSONL); err != nil {
		return err
	}
	if err := write(base+".metrics.prom", r.WriteMetrics); err != nil {
		return err
	}
	return write(base+".trace.json", r.WriteChromeTrace)
}
