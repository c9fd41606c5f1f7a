package cluster_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/metrics"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

// cartRun is one run of the Sock Shop cart mix under 900 users with a
// 10 ms timeout on cart→cart-db, so some traces complete unsettled.
type cartRun struct {
	k *sim.Kernel
	c *cluster.Cluster
}

// newCartRun builds the run; retain declares the warehouse first.
func newCartRun(t *testing.T, retain bool) cartRun {
	t.Helper()
	k := sim.NewKernel(5)
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 10
	app := topology.SockShop(cfg)
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if retain {
		if err := c.RetainTraces(trace.DefaultRetention); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetMix(topology.CartOnlyMix(app)); err != nil {
		t.Fatal(err)
	}
	var policies []topology.EdgePolicy
	for _, p := range topology.SockShopResilience() {
		if p.Callee == topology.CartDB {
			p.Policy.Timeout = 10 * time.Millisecond
			policies = append(policies, p)
		}
	}
	if err := topology.ApplyResilience(c, policies); err != nil {
		t.Fatal(err)
	}
	return cartRun{k: k, c: c}
}

// run drives the closed loop for dur and drains the kernel.
func (r cartRun) run(t *testing.T, dur time.Duration) {
	t.Helper()
	loop, err := workload.NewClosedLoop(r.k, workload.ClosedLoopConfig{
		Target: workload.ConstantUsers(900),
		Submit: func(done func()) { r.c.SubmitMixWith(done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start()
	r.k.RunUntil(sim.Time(dur))
	loop.Stop()
	r.k.Run()
}

// TestUndeclaredClusterStoresNoTraces: a cluster no reader declared
// builds no warehouse and stores nothing, yet its OnComplete readers
// see every completed trace in full; reading a window then panics with
// a message naming RetainTraces instead of returning an empty one.
func TestUndeclaredClusterStoresNoTraces(t *testing.T) {
	r := newCartRun(t, false)
	completions, spans, unsettled := 0, 0, 0
	r.c.OnComplete(func(tr *trace.Trace) {
		completions++
		recs := tr.Records(nil)
		if len(recs) < 2 || recs[0].Size != int32(len(recs)) {
			t.Fatalf("trace %d: %d records, want a whole tree of at least 2", tr.ID, len(recs))
		}
		spans += len(recs)
		if !tr.Settled {
			unsettled++
		}
	})
	r.run(t, 4*time.Second)
	if completions == 0 || uint64(completions) != r.c.Completed() || spans <= completions {
		t.Fatalf("callbacks saw %d traces with %d spans, cluster completed %d", completions, spans, r.c.Completed())
	}
	if unsettled == 0 {
		t.Error("no trace completed unsettled; the run does not cover dropping one")
	}
	wh := r.c.Warehouse()
	if wh != nil {
		t.Fatalf("an undeclared cluster built a warehouse holding %d traces", wh.Len())
	}
	if n, st := wh.Len(), wh.Stats(); n != 0 || st != (trace.WarehouseStats{}) {
		t.Errorf("nil warehouse: Len %d, Stats %+v, want zeros", n, st)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "RetainTraces") {
			t.Errorf("undeclared Window panicked with %q, want a message naming RetainTraces", msg)
		}
	}()
	wh.Window(0, sim.Time(time.Hour))
	t.Error("Window on an undeclared cluster returned")
}

// TestRetainTracesDeclaration: a second declaration is a no-op that
// keeps the warehouse, and declaring once a trace has completed
// unretained fails. A cluster only scan readers declared stores the
// scan form; a whole-trace declaration before the first completion
// makes it store whole traces, and one after it fails.
func TestRetainTracesDeclaration(t *testing.T) {
	r := newCartRun(t, true)
	wh := r.c.Warehouse()
	if wh == nil {
		t.Fatal("RetainTraces built no warehouse")
	}
	if err := r.c.RetainTraces(trace.DefaultRetention); err != nil || r.c.Warehouse() != wh {
		t.Fatalf("second RetainTraces: %v, same warehouse %v", err, r.c.Warehouse() == wh)
	}
	r.run(t, time.Second)
	if wh.Len() == 0 || wh.Stats().Added != r.c.Completed() {
		t.Errorf("declared warehouse stored %d of %d completed traces", wh.Stats().Added, r.c.Completed())
	}

	late := newCartRun(t, false)
	late.run(t, time.Second)
	if err := late.c.RetainTraces(trace.DefaultRetention); err == nil || !strings.Contains(err.Error(), "unretained") {
		t.Errorf("RetainTraces after unretained completions = %v, want an error", err)
	}
	if late.c.Warehouse() != nil {
		t.Error("a refused declaration left a warehouse behind")
	}

	scans := newCartRun(t, false)
	if err := scans.c.RetainScans(time.Minute); err != nil {
		t.Fatal(err)
	}
	scans.run(t, time.Second)
	tr := firstSettled(t, scans.c.Warehouse())
	if recs := tr.Scan(nil); len(recs) < 2 || !recs[0].OnPath {
		t.Errorf("a scan-form trace reads %d scan records, want a whole tree from an on-path root", len(recs))
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "RetainTraces") {
				t.Errorf("Records of a scan-form trace panicked with %q, want a message naming RetainTraces", msg)
			}
		}()
		tr.Records(nil)
		t.Error("Records of a trace only scan readers declared returned")
	}()
	if err := scans.c.RetainTraces(time.Minute); err == nil || !strings.Contains(err.Error(), "scan form") {
		t.Errorf("RetainTraces after scan-form traces were stored = %v, want an error", err)
	}

	up := newCartRun(t, false)
	for _, declare := range []func(time.Duration) error{up.c.RetainScans, up.c.RetainTraces, up.c.RetainScans} {
		if err := declare(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	up.run(t, time.Second)
	tr = firstSettled(t, up.c.Warehouse())
	if recs := tr.Records(nil); len(recs) < 2 {
		t.Errorf("a trace of an upgraded warehouse decodes %d records", len(recs))
	}
}

// firstSettled returns the oldest trace wh stored settled, as a stream.
func firstSettled(t *testing.T, wh *trace.Warehouse) trace.Trace {
	t.Helper()
	all := wh.Window(math.MinInt64, math.MaxInt64)
	for i := range all.Len() {
		if seq := all.First() + uint64(i); len(wh.Unsettled(seq, seq+1)) == 0 {
			return all.At(i)
		}
	}
	t.Fatal("the warehouse holds no settled trace")
	return trace.Trace{}
}

// TestTelemetryDeclaresRetention: a cluster with a telemetry recorder
// keeps traces, since its end-of-run flush samples spans from the
// warehouse; one without keeps none.
func TestTelemetryDeclaresRetention(t *testing.T) {
	app := topology.SockShop(topology.DefaultSockShop())
	c, err := cluster.New(sim.NewKernel(1), app, cluster.Options{Telemetry: telemetry.NewRecorder("t")})
	if err != nil {
		t.Fatal(err)
	}
	if c.Warehouse() == nil {
		t.Error("a cluster with telemetry has no warehouse")
	}
	c, err = cluster.New(sim.NewKernel(1), app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Warehouse() != nil {
		t.Error("a cluster without telemetry or a declared reader has a warehouse")
	}
}

// TestRetentionMovesNoOutcome: declaring the warehouse changes what the
// cluster stores, not what it simulates. The same seed with and without
// it processes the same events and completes, fails and times out the
// same requests at the same times.
func TestRetentionMovesNoOutcome(t *testing.T) {
	type outcome struct {
		processed, completed, failed, timedOut uint64
		e2e                                    []metrics.Completion
	}
	var got [2]outcome
	for i, retain := range []bool{false, true} {
		r := newCartRun(t, retain)
		if err := r.c.RecordCompletions(trace.DefaultRetention); err != nil {
			t.Fatal(err)
		}
		r.run(t, 4*time.Second)
		got[i] = outcome{
			r.k.Processed(), r.c.Completed(), r.c.Failed(), r.c.TimedOut(),
			r.c.Completions().Window(0, sim.Time(time.Hour)),
		}
	}
	a, b := got[0], got[1]
	if a.processed != b.processed || a.completed != b.completed || a.failed != b.failed || a.timedOut != b.timedOut {
		t.Errorf("undeclared %+v, declared %+v: counts differ", a, b)
	}
	if a.timedOut == 0 || len(a.e2e) == 0 {
		t.Errorf("the run timed out %d calls and logged %d completions; it covers nothing", a.timedOut, len(a.e2e))
	}
	if !slices.Equal(a.e2e, b.e2e) {
		t.Error("the end-to-end completion logs differ")
	}
}

// TestRetainedCopyOutlivesRecycledSpans: on an undeclared cluster, a
// settled trace's spans go back to the free list once its callbacks
// return and later requests reuse them. A copy Retain took in the
// callback must still decode the records the callback read.
func TestRetainedCopyOutlivesRecycledSpans(t *testing.T) {
	r := newCartRun(t, false)
	type kept struct {
		tr   *trace.Trace
		recs []trace.Record
	}
	var all []kept
	completions := 0
	r.c.OnComplete(func(tr *trace.Trace) {
		completions++
		// An unsettled trace's copy shares its live tree, which orphaned
		// work may still change; only settled copies must stay as read.
		if tr.Settled {
			all = append(all, kept{tr.Retain(), tr.Records(nil)})
		}
	})
	r.run(t, 2*time.Second)
	if len(all) < 100 || len(all) == completions {
		t.Fatalf("%d of %d traces settled; want many settled and some not", len(all), completions)
	}
	for _, k := range all {
		if got := k.tr.Records(nil); !slices.Equal(got, k.recs) {
			t.Fatalf("trace %d reads back %d records, the callback read %d: first %+v, was %+v",
				k.tr.ID, len(got), len(k.recs), got[0], k.recs[0])
		}
		if rt, want := k.tr.ResponseTime(), k.recs[0].Duration(); rt != want {
			t.Fatalf("trace %d: response time %v, root record %v", k.tr.ID, rt, want)
		}
	}
}

// TestDeclaredReachBoundsWarehouse: a warehouse keeps only the traces
// completing within its declared reach of the newest one, and those read
// the same as in a twin cluster that declared trace.DefaultRetention. A
// longer reach widens it until its first eviction and is refused after
// it; a reach beyond trace.DefaultRetention is capped.
func TestDeclaredReachBoundsWarehouse(t *testing.T) {
	const reach = 10 * time.Second
	short, long := newCartRun(t, false), newCartRun(t, true)
	for _, d := range []time.Duration{reach / 2, reach, time.Second} {
		if err := short.c.RetainTraces(d); err != nil {
			t.Fatalf("RetainTraces(%v) before any eviction: %v", d, err)
		}
	}
	short.run(t, 40*time.Second)
	long.run(t, 40*time.Second)

	wh := short.c.Warehouse()
	if wh.Stats().Evicted == 0 {
		t.Fatalf("a %v reach over a 40s run evicted nothing: %+v", reach, wh.Stats())
	}
	if st := long.c.Warehouse().Stats(); st.Evicted != 0 || st.Added != wh.Stats().Added {
		t.Fatalf("twin keeping %v: %+v, want every one of %d traces", trace.DefaultRetention, st, wh.Stats().Added)
	}
	all := wh.Window(math.MinInt64, math.MaxInt64)
	last, first := all.At(all.Len()-1), all.At(0)
	if newest, oldest := last.CompletedAt(), first.CompletedAt(); oldest < newest-sim.Time(reach) {
		t.Errorf("oldest retained trace completed at %v, more than %v before the newest at %v", oldest, reach, newest)
	}

	now := short.k.Now()
	got, want := wh.Window(now-sim.Time(reach), now), long.c.Warehouse().Window(now-sim.Time(reach), now)
	if got.Len() == 0 || got.Len() != want.Len() {
		t.Fatalf("window of the last %v: %d traces, twin %d", reach, got.Len(), want.Len())
	}
	var bufA, bufB []trace.Record
	for i := range got.Len() {
		a, b := got.At(i), want.At(i)
		if a.ID != b.ID || !slices.Equal(a.Records(&bufA), b.Records(&bufB)) {
			t.Fatalf("trace %d of the window: %d decodes differently from the twin's %d", i, a.ID, b.ID)
		}
	}

	err := short.c.RetainTraces(time.Hour)
	if err == nil || !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("widening after an eviction = %v, want an error", err)
	}
	if capped := trace.DefaultRetention.String(); !strings.Contains(err.Error(), "widened to "+capped) {
		t.Errorf("widening to an hour = %v, want the reach capped at %s", err, capped)
	}
	if err := short.c.RetainTraces(reach); err != nil {
		t.Errorf("redeclaring the reach after an eviction: %v", err)
	}
	if err := short.c.RetainTraces(0); err == nil {
		t.Error("RetainTraces(0) declared no reach and succeeded")
	}
}

// TestDeclaredReachBoundsCompletionLogs: the end-to-end log and a span
// log keep only the completions within their declared reach of now, and
// those are the twin's newest entries, entry for entry, in a cluster
// that declared trace.DefaultRetention. A longer reach widens a log
// until its first prune and is refused after it. A cluster nothing
// declared records no end-to-end completion, and refuses a late
// declaration.
func TestDeclaredReachBoundsCompletionLogs(t *testing.T) {
	const reach = 10 * time.Second
	short, long := newCartRun(t, false), newCartRun(t, false)
	declare := func(r cartRun, d time.Duration) {
		t.Helper()
		if err := r.c.RecordCompletions(d); err != nil {
			t.Fatalf("RecordCompletions(%v) before any prune: %v", d, err)
		}
		if err := r.c.RecordSpans(topology.Cart, d); err != nil {
			t.Fatalf("RecordSpans(%v) before any prune: %v", d, err)
		}
	}
	for _, d := range []time.Duration{reach / 2, reach, time.Second} {
		declare(short, d)
	}
	declare(long, trace.DefaultRetention)
	short.run(t, 40*time.Second)
	long.run(t, 40*time.Second)

	shortCart, err := short.c.Service(topology.Cart)
	if err != nil {
		t.Fatal(err)
	}
	longCart, err := long.c.Service(topology.Cart)
	if err != nil {
		t.Fatal(err)
	}
	now := short.k.Now()
	for _, l := range []struct {
		name      string
		got, want *metrics.CompletionLog
	}{
		{"end-to-end", short.c.Completions(), long.c.Completions()},
		{"cart span", shortCart.SpanLog(), longCart.SpanLog()},
	} {
		got, want := l.got.Window(math.MinInt64, math.MaxInt64), l.want.Window(math.MinInt64, math.MaxInt64)
		if len(got) == 0 || len(got) >= len(want) || want[0].At >= now-sim.Time(reach) {
			t.Fatalf("%s log: a %v reach over a 40s run kept %d of the twin's %d entries; it pruned nothing", l.name, reach, len(got), len(want))
		}
		if !slices.Equal(got, want[len(want)-len(got):]) {
			t.Errorf("%s log: the %d kept entries are not the twin's newest", l.name, len(got))
		}
		last, lastWant := l.got.Window(now-sim.Time(reach), now), l.want.Window(now-sim.Time(reach), now)
		if len(last) == 0 || !slices.Equal(last, lastWant) {
			t.Errorf("%s log: the last %v hold %d entries, the twin's %d", l.name, reach, len(last), len(lastWant))
		}
	}

	for _, err := range []error{short.c.RecordCompletions(time.Hour), short.c.RecordSpans(topology.Cart, time.Hour)} {
		if err == nil || !strings.Contains(err.Error(), "pruned") {
			t.Fatalf("widening after a prune = %v, want an error", err)
		}
		if capped := trace.DefaultRetention.String(); !strings.Contains(err.Error(), "widened to "+capped) {
			t.Errorf("widening to an hour = %v, want the reach capped at %s", err, capped)
		}
	}
	if err := short.c.RecordCompletions(reach); err != nil {
		t.Errorf("redeclaring the end-to-end reach after a prune: %v", err)
	}
	if err := short.c.RecordSpans(topology.Cart, reach); err != nil {
		t.Errorf("redeclaring the span reach after a prune: %v", err)
	}
	if err := short.c.RecordCompletions(0); err == nil {
		t.Error("RecordCompletions(0) declared no reach and succeeded")
	}
	if err := short.c.RecordSpans(topology.Cart, -time.Second); err == nil {
		t.Error("RecordSpans(-1s) declared no reach and succeeded")
	}

	bare := newCartRun(t, false)
	bare.run(t, time.Second)
	if bare.c.Completed() == 0 {
		t.Fatal("the undeclared run completed nothing")
	}
	if msg := readPanic(func() { bare.c.Completions() }); !strings.Contains(msg, "RecordCompletions") {
		t.Errorf("undeclared Completions panicked with %q, want a message naming RecordCompletions", msg)
	}
	if err := bare.c.RecordCompletions(reach); err == nil {
		t.Error("RecordCompletions after requests completed unrecorded succeeded")
	}
	if err := bare.c.RecordSpans(topology.Cart, reach); err == nil {
		t.Error("RecordSpans after visits completed unrecorded succeeded")
	}
}

// readPanic calls fn and returns the string it panicked with, or "" if
// it returned.
func readPanic(fn func()) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	fn()
	return ""
}
