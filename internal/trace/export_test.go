package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

func TestExportImportRoundTrip(t *testing.T) {
	orig := chainTrace(42)
	var buf bytes.Buffer
	if err := Export(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := importOne(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != orig.ID || got.Type != orig.Type {
		t.Errorf("id/type = %d/%q, want %d/%q", got.ID, got.Type, orig.ID, orig.Type)
	}
	if got.SpanCount() != orig.SpanCount() {
		t.Fatalf("span count = %d, want %d", got.SpanCount(), orig.SpanCount())
	}
	if got.ResponseTime() != orig.ResponseTime() {
		t.Errorf("response time = %v, want %v", got.ResponseTime(), orig.ResponseTime())
	}
	// Critical path and processing times must survive the round trip.
	gp, op := got.CriticalPathServices(), orig.CriticalPathServices()
	for i := range op {
		if gp[i] != op[i] {
			t.Fatalf("critical path = %v, want %v", gp, op)
		}
	}
	gSpan, oSpan := got.FindSpan("cart"), orig.FindSpan("cart")
	if gSpan.ProcessingTime() != oSpan.ProcessingTime() {
		t.Errorf("cart PT = %v, want %v", gSpan.ProcessingTime(), oSpan.ProcessingTime())
	}
	if gi, oi := gSpan.Instance(got.Names), oSpan.Instance(orig.Names); gi != oi || oi != "cart-0" {
		t.Errorf("instance = %q, want %q", gi, oi)
	}
}

func TestExportAllImportAll(t *testing.T) {
	traces := []*Trace{chainTrace(1), forkTrace(2), chainTrace(3)}
	var buf bytes.Buffer
	if err := ExportAll(&buf, traces); err != nil {
		t.Fatal(err)
	}
	// JSON Lines: one object per line.
	if got := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1; got != 3 {
		t.Errorf("exported %d lines, want 3", got)
	}
	got, err := ImportAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("imported %d traces, want 3", len(got))
	}
	for i := range traces {
		if got[i].ID != traces[i].ID {
			t.Errorf("trace %d ID = %d, want %d", i, got[i].ID, traces[i].ID)
		}
	}
}

func TestExportEmptyTraceErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Export(&buf, nil); err == nil {
		t.Error("nil trace: expected error")
	}
	if err := Export(&buf, &Trace{ID: 1}); err == nil {
		t.Error("rootless trace: expected error")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := importOne(strings.NewReader("not json")); err == nil {
		t.Error("garbage: expected error")
	}
	if _, err := importOne(strings.NewReader(`{"id":1,"type":"x","root":{}}`)); err == nil {
		t.Error("empty root: expected error")
	}
	if _, err := ImportAll(strings.NewReader(`{"id":1,"type":"x","root":{"service":"a"}}` + "\ngarbage")); err == nil {
		t.Error("trailing garbage: expected error")
	}
}

// TestImportRejectsOutOfRangeDepth checks that a span depth an int32
// Span.Depth cannot hold is an import error, not a silent truncation,
// in a root and in a nested child.
func TestImportRejectsOutOfRangeDepth(t *testing.T) {
	for _, rec := range []string{
		`{"id":1,"type":"x","root":{"service":"a","depth":2147483648}}`,
		`{"id":1,"type":"x","root":{"service":"a","children":[{"service":"b","depth":-2147483649}]}}`,
	} {
		if _, err := ImportAll(strings.NewReader(rec + "\n")); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ImportAll(%s): err = %v, want a depth out of range error", rec, err)
		}
	}
	got, err := importOne(strings.NewReader(`{"id":1,"type":"x","root":{"service":"a","depth":2147483647}}`))
	if err != nil || got.Root.Depth != math.MaxInt32 {
		t.Errorf("largest depth: got %v, %v; want depth %d", got, err, math.MaxInt32)
	}
}

// FuzzImportTrace feeds arbitrary bytes to ImportAll: it may not panic,
// and any archive it accepts must be a fixed point of Export∘ImportAll —
// exporting it, importing the export and exporting again gives the same
// bytes. Every accepted trace must also keep each span depth of its
// record, so a truncated depth cannot pass.
func FuzzImportTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := ExportAll(&buf, []*Trace{chainTrace(1), forkTrace(2)}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"id":1,"type":"x","root":{"service":"a","depth":2147483648}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := ImportAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkFixedPoint(t, traces)
		dec := json.NewDecoder(bytes.NewReader(data))
		for i, tr := range traces {
			var rec TraceRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("ImportAll accepted what the decoder rejects: %v", err)
			}
			if !sameDepths(rec.Root, tr.Root) {
				t.Fatalf("trace %d: depths changed on import: record %+v", i, rec.Root)
			}
		}
	})
}

// sameDepths reports whether span tree s has rec's shape and depths.
func sameDepths(rec SpanRecord, s *Span) bool {
	if int(s.Depth) != rec.Depth || len(s.Children) != len(rec.Children) {
		return false
	}
	for i, c := range rec.Children {
		if !sameDepths(c, s.Children[i]) {
			return false
		}
	}
	return true
}

// checkFixedPoint fails t unless exporting traces, importing that and
// exporting again reproduces the first export byte for byte.
func checkFixedPoint(t *testing.T, traces []*Trace) {
	t.Helper()
	var first, second bytes.Buffer
	if err := ExportAll(&first, traces); err != nil {
		t.Fatalf("export of an accepted archive: %v", err)
	}
	again, err := ImportAll(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("import of an export: %v\n%s", err, first.Bytes())
	}
	if err := ExportAll(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("export is not a fixed point:\n first  %s\n second %s", first.Bytes(), second.Bytes())
	}
}

func TestImportAllEmptyInput(t *testing.T) {
	got, err := ImportAll(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("imported %d traces from empty input", len(got))
	}
}

func TestExportTimestampPrecision(t *testing.T) {
	// The archive stores nanoseconds: the kernel's native resolution must
	// round-trip exactly, or offline blame attribution could diverge from
	// the in-process profile.
	s := &Span{
		Service: "svc",
		Arrival: 1234567891 * time.Nanosecond,
		Start:   1234567892 * time.Nanosecond,
		End:     2234567893 * time.Nanosecond,
		Blocked: 100001 * time.Nanosecond,
		Demand:  50003 * time.Nanosecond,
		CPU:     60007 * time.Nanosecond,
	}
	var buf bytes.Buffer
	if err := Export(&buf, &Trace{ID: 9, Type: "t", Root: s}); err != nil {
		t.Fatal(err)
	}
	got, err := importOne(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root.Arrival != s.Arrival || got.Root.End != s.End || got.Root.Blocked != s.Blocked {
		t.Errorf("timestamps changed: %+v", got.Root)
	}
	if got.Root.Demand != s.Demand || got.Root.CPU != s.CPU {
		t.Errorf("phase fields changed: %+v", got.Root)
	}
}

func TestExportRoundTripsPhaseMarkers(t *testing.T) {
	refused := &Span{Service: "cart-db", Depth: 1, Arrival: 5 * time.Millisecond,
		Start: 5 * time.Millisecond, End: 5 * time.Millisecond, Failed: true}
	root := &Span{Service: "cart", Arrival: 0, Start: time.Millisecond,
		End: 10 * time.Millisecond, Failed: true, Children: []*Span{refused}}
	var buf bytes.Buffer
	if err := Export(&buf, &Trace{ID: 1, Type: "t", Root: root}); err != nil {
		t.Fatal(err)
	}
	got, err := importOne(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Root.Failed {
		t.Error("Failed marker lost in round trip")
	}
	if len(got.Root.Children) != 1 || !got.Root.Children[0].Failed {
		t.Error("refused child's Failed marker lost in round trip")
	}
}

func TestExportRoundTripsResilienceMarkers(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	abandoned := &Span{Service: "social-graph", Depth: 1,
		Arrival: ms(5), Start: ms(6), End: ms(12), Abandoned: true}
	retried := &Span{Service: "post-storage", Depth: 1,
		Arrival: ms(14), Start: ms(15), End: ms(40)}
	root := &Span{
		Service: "home-timeline", Arrival: 0, Start: ms(1), End: ms(60),
		Blocked:     30 * time.Millisecond,
		RetryWait:   7 * time.Millisecond,
		BreakerWait: 3 * time.Millisecond,
		Degraded:    true,
		Children:    []*Span{abandoned, retried},
	}
	orig := &Trace{ID: 2, Type: "readHomeTimeline", Root: root}
	var buf bytes.Buffer
	if err := Export(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := importOne(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := got.Root
	if r.RetryWait != root.RetryWait || r.BreakerWait != root.BreakerWait {
		t.Errorf("resilience waits = %v/%v, want %v/%v",
			r.RetryWait, r.BreakerWait, root.RetryWait, root.BreakerWait)
	}
	if !r.Degraded {
		t.Error("Degraded marker lost in round trip")
	}
	if len(r.Children) != 2 || !r.Children[0].Abandoned || r.Children[1].Abandoned {
		t.Error("Abandoned markers changed in round trip")
	}
	// The derived views must agree exactly with the original: retry and
	// breaker waits leave processing time, and abandoned children leave
	// the critical path.
	if got.Root.ProcessingTime() != orig.Root.ProcessingTime() {
		t.Errorf("PT = %v, want %v", got.Root.ProcessingTime(), orig.Root.ProcessingTime())
	}
	gp, op := got.CriticalPathServices(), orig.CriticalPathServices()
	if len(gp) != len(op) {
		t.Fatalf("critical path = %v, want %v", gp, op)
	}
	for i := range op {
		if gp[i] != op[i] {
			t.Fatalf("critical path = %v, want %v", gp, op)
		}
	}
	for _, svc := range gp {
		if svc == "social-graph" {
			t.Error("abandoned child on imported critical path")
		}
	}
}

func TestImportLegacyMicrosecondArchive(t *testing.T) {
	// Archives written before the nanosecond format carry *_us fields;
	// ImportAll must still understand them.
	legacy := `{"id":3,"type":"getCart","root":{"service":"front-end","depth":0,` +
		`"arrival_us":0,"start_us":1000,"end_us":100000,"blocked_us":80000,` +
		`"children":[{"service":"cart","depth":1,"arrival_us":5000,"start_us":8000,"end_us":85000}]}}`
	got, err := importOne(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if got.ResponseTime() != 100*time.Millisecond {
		t.Errorf("legacy response time = %v, want 100ms", got.ResponseTime())
	}
	if got.Root.Blocked != 80*time.Millisecond {
		t.Errorf("legacy blocked = %v, want 80ms", got.Root.Blocked)
	}
	cart := got.FindSpan("cart")
	if cart == nil || cart.Arrival != 5*time.Millisecond {
		t.Errorf("legacy child timestamps wrong: %+v", cart)
	}
}

// importOne decodes a single-record archive through ImportAll.
func importOne(r io.Reader) (*Trace, error) {
	traces, err := ImportAll(r)
	if err != nil {
		return nil, err
	}
	if len(traces) != 1 {
		return nil, fmt.Errorf("archive holds %d traces, want 1", len(traces))
	}
	return traces[0], nil
}
