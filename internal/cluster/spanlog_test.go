package cluster

import (
	"strings"
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/trace"
)

// runTwoTier submits n requests 5 ms apart on c and drains the kernel.
func runTwoTier(k *sim.Kernel, c *Cluster, n int) {
	for i := 0; i < n; i++ {
		k.Schedule(time.Duration(i)*5*time.Millisecond, c.SubmitMix)
	}
	k.Run()
}

// TestUndeclaredSpanLogPanics: New creates no span log, and reading
// one that no reader declared panics with the service's name rather
// than returning an empty log that reads as a service that served
// nothing.
func TestUndeclaredSpanLogPanics(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(0, 0))
	for _, svc := range c.svcs {
		if svc.spanLog != nil {
			t.Errorf("New allocated a span log for undeclared service %s", svc.name)
		}
	}
	runTwoTier(k, c, 10)
	be, err := c.Service("backend")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"backend"`) {
			t.Errorf("undeclared SpanLog panicked with %q, want a message naming \"backend\"", msg)
		}
	}()
	be.SpanLog()
	t.Error("undeclared SpanLog returned")
}

func TestRecordSpansUnknownService(t *testing.T) {
	c := mustCluster(t, sim.NewKernel(1), twoTier(0, 0))
	if err := c.RecordSpans("ghost", trace.DefaultRetention); err == nil {
		t.Error("RecordSpans(ghost) succeeded")
	}
}

// TestRecordSpansTwiceIsNoOp: a second declaration, even mid-run, keeps
// the log and its history.
func TestRecordSpansTwiceIsNoOp(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(0, 0))
	if err := c.RecordSpans("backend", trace.DefaultRetention); err != nil {
		t.Fatal(err)
	}
	be, _ := c.Service("backend")
	log := be.SpanLog()
	runTwoTier(k, c, 10)
	if err := c.RecordSpans("backend", trace.DefaultRetention); err != nil {
		t.Fatalf("second RecordSpans: %v", err)
	}
	if be.SpanLog() != log || log.Len() != 10 {
		t.Errorf("second RecordSpans replaced the log or lost entries: same log %v, %d entries, want 10",
			be.SpanLog() == log, be.SpanLog().Len())
	}
}

// TestRecordSpansAfterVisitsFails: a service that completed a visit
// unrecorded cannot be declared, since its log would silently lack that
// history. A service with no visits yet still can be, mid-run.
func TestRecordSpansAfterVisitsFails(t *testing.T) {
	k := sim.NewKernel(1)
	app := twoTier(0, 0)
	app.Services = append(app.Services, ServiceSpec{Name: "idle", Replicas: 1, Cores: 1})
	c := mustCluster(t, k, app)
	runTwoTier(k, c, 3)
	err := c.RecordSpans("backend", trace.DefaultRetention)
	if err == nil || !strings.Contains(err.Error(), `"backend"`) {
		t.Errorf("RecordSpans after unrecorded visits = %v, want an error naming \"backend\"", err)
	}
	be, _ := c.Service("backend")
	if be.spanLog != nil {
		t.Error("a refused declaration left a span log behind")
	}
	if err := c.RecordSpans("idle", trace.DefaultRetention); err != nil {
		t.Errorf("RecordSpans on a service with no visits yet: %v", err)
	}
}

// TestDeclaredSpanLogCountsEveryVisit: a declared service's log holds
// one entry per visit it completed, counted from the warehouse's span
// records, while the undeclared service in the same run keeps none.
func TestDeclaredSpanLogCountsEveryVisit(t *testing.T) {
	k := sim.NewKernel(3)
	c := mustCluster(t, k, twoTier(2, 0))
	retainTraces(t, c)
	if err := c.RecordSpans("backend", trace.DefaultRetention); err != nil {
		t.Fatal(err)
	}
	runTwoTier(k, c, 40)
	names := c.TraceNames()
	visits := 0
	all := allTraces(c)
	for i := range all.Len() {
		tr := all.At(i)
		for _, r := range tr.Records(nil) {
			if r.Instance >= 0 && names.Service(r.Service) == "backend" {
				visits++
			}
		}
	}
	be, _ := c.Service("backend")
	if visits != 40 || be.SpanLog().Len() != visits {
		t.Errorf("backend span log has %d entries, warehouse records %d completed visits, want both 40",
			be.SpanLog().Len(), visits)
	}
	if fe, _ := c.Service("frontend"); fe.spanLog != nil {
		t.Error("undeclared frontend recorded spans")
	}
}

// TestRecordSpansReach: a span log keeps the longest reach declared,
// capped at trace.DefaultRetention, and a non-positive reach is an
// error that declares nothing. Pruning at the reach is pinned by
// TestDeclaredReachBoundsCompletionLogs.
func TestRecordSpansReach(t *testing.T) {
	c := mustCluster(t, sim.NewKernel(1), twoTier(0, 0))
	for _, d := range []time.Duration{0, -time.Second} {
		if err := c.RecordSpans("backend", d); err == nil {
			t.Errorf("RecordSpans(backend, %v) succeeded", d)
		}
	}
	be, _ := c.Service("backend")
	if be.spanLog != nil {
		t.Fatal("a refused declaration left a span log behind")
	}
	for _, step := range []struct{ d, want time.Duration }{
		{5 * time.Second, 5 * time.Second},
		{time.Second, 5 * time.Second},
		{time.Hour, trace.DefaultRetention},
	} {
		if err := c.RecordSpans("backend", step.d); err != nil {
			t.Fatalf("RecordSpans(backend, %v): %v", step.d, err)
		}
		if got := be.spanLog.reach; got != step.want {
			t.Errorf("after declaring %v the reach is %v, want %v", step.d, got, step.want)
		}
	}
}

// TestUndeclaredCompletionLog: New creates no end-to-end log and a run
// records none, so a declaration after it fails and leaves none behind.
func TestUndeclaredCompletionLog(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(0, 0))
	runTwoTier(k, c, 10)
	if c.e2eLog != nil || !c.unrecorded {
		t.Fatalf("undeclared run: end-to-end log %v, unrecorded %v; want none, and the miss noted", c.e2eLog != nil, c.unrecorded)
	}
	if err := c.RecordCompletions(time.Minute); err == nil || c.e2eLog != nil {
		t.Errorf("RecordCompletions after unrecorded completions = %v, log created %v; want an error and no log", err, c.e2eLog != nil)
	}
}
