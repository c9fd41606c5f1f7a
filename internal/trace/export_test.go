package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
	gr, or := got.Records(nil), orig.Records(nil)
	if len(gr) != len(or) {
		t.Fatalf("%d spans, want %d", len(gr), len(or))
	}
	if got.ResponseTime() != orig.ResponseTime() {
		t.Errorf("response time = %v, want %v", got.ResponseTime(), orig.ResponseTime())
	}
	// Critical path and processing times must survive the round trip.
	if gp, op := got.CriticalPathServices(), orig.CriticalPathServices(); !slices.Equal(gp, op) {
		t.Fatalf("critical path = %v, want %v", gp, op)
	}
	if svc := got.Names.Service(gr[1].Service); svc != "cart" {
		t.Fatalf("second span is %q, want cart", svc)
	}
	if gr[1].ProcessingTime() != or[1].ProcessingTime() {
		t.Errorf("cart PT = %v, want %v", gr[1].ProcessingTime(), or[1].ProcessingTime())
	}
	if gi, oi := got.Names.Instance(gr[1].Instance), orig.Names.Instance(or[1].Instance); gi != oi || oi != "cart-0" {
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

// TestImportRejectsInconsistentDepth checks that a span whose depth is
// not its nesting depth is an import error: a root at depth 1, a child
// at depth 0 and a grandchild at depth 1.
func TestImportRejectsInconsistentDepth(t *testing.T) {
	for _, rec := range []string{
		`{"id":1,"type":"x","root":{"service":"a","depth":1}}`,
		`{"id":1,"type":"x","root":{"service":"a","children":[{"service":"b","depth":0}]}}`,
		`{"id":1,"type":"x","root":{"service":"a","children":[{"service":"b","depth":1,"children":[{"service":"c","depth":1}]}]}}`,
	} {
		if _, err := ImportAll(strings.NewReader(rec + "\n")); err == nil || !strings.Contains(err.Error(), "nesting depth") {
			t.Errorf("ImportAll(%s): err = %v, want a nesting depth error", rec, err)
		}
	}
}

// FuzzImportTrace feeds arbitrary bytes to ImportAll: it may not panic,
// and any archive it accepts must be a fixed point of Export∘ImportAll —
// exporting it, importing the export and exporting again gives the same
// bytes. Every accepted trace must also export each span at the depth
// its record gave, so an import that does not check depths cannot pass.
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
			var rec, out TraceRecord
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("ImportAll accepted what the decoder rejects: %v", err)
			}
			var b bytes.Buffer
			if err := Export(&b, tr); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			if !sameDepths(rec.Root, out.Root) {
				t.Fatalf("trace %d: depths changed on import: record %+v, export %+v", i, rec.Root, out.Root)
			}
		}
	})
}

// sameDepths reports whether span records a and b have the same shape
// and depths.
func sameDepths(a, b SpanRecord) bool {
	if a.Depth != b.Depth || len(a.Children) != len(b.Children) {
		return false
	}
	for i, c := range a.Children {
		if !sameDepths(c, b.Children[i]) {
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
	names := NewNames(nil)
	s := visit(names, "svc", Span{
		Arrival: 1234567891 * time.Nanosecond,
		Start:   1234567892 * time.Nanosecond,
		End:     2234567893 * time.Nanosecond,
		Blocked: 100001 * time.Nanosecond,
		Demand:  50003 * time.Nanosecond,
		CPU:     60007 * time.Nanosecond,
	})
	var buf bytes.Buffer
	if err := Export(&buf, &Trace{ID: 9, Type: "t", Root: s, Names: names}); err != nil {
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
	names := NewNames(nil)
	root := visit(names, "cart", Span{Arrival: 0, Start: time.Millisecond,
		End: 10 * time.Millisecond, Failed: true})
	root.Children = []*Span{visit(names, "cart-db", Span{Arrival: 5 * time.Millisecond,
		Start: 5 * time.Millisecond, End: 5 * time.Millisecond, Failed: true})}
	var buf bytes.Buffer
	if err := Export(&buf, &Trace{ID: 1, Type: "t", Root: root, Names: names}); err != nil {
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
	names := NewNames(nil)
	root := visit(names, "home-timeline", Span{
		Arrival: 0, Start: ms(1), End: ms(60),
		Blocked:     30 * time.Millisecond,
		RetryWait:   7 * time.Millisecond,
		BreakerWait: 3 * time.Millisecond,
		Degraded:    true,
	})
	root.Children = []*Span{
		visit(names, "social-graph", Span{Arrival: ms(5), Start: ms(6), End: ms(12), Abandoned: true}),
		visit(names, "post-storage", Span{Arrival: ms(14), Start: ms(15), End: ms(40)}),
	}
	orig := &Trace{ID: 2, Type: "readHomeTimeline", Root: root, Names: names}
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
	if gpt, opt := got.Records(nil)[0].ProcessingTime(), orig.Records(nil)[0].ProcessingTime(); gpt != opt {
		t.Errorf("PT = %v, want %v", gpt, opt)
	}
	gp, op := got.CriticalPathServices(), orig.CriticalPathServices()
	if !slices.Equal(gp, op) {
		t.Fatalf("critical path = %v, want %v", gp, op)
	}
	for _, svc := range gp {
		if svc == "social-graph" {
			t.Error("abandoned child on imported critical path")
		}
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
