package cluster

import (
	"math"
	"testing"
	"time"

	"sora/internal/dist"
	"sora/internal/sim"
	"sora/internal/trace"
)

// twoTier builds a minimal frontend -> backend app where the backend does
// the heavy lifting.
func twoTier(threadPool, dbPool int) App {
	rt := &RequestType{
		Name: "get",
		Root: &CallNode{
			Service: "frontend",
			ReqWork: dist.NewDeterministic(time.Millisecond),
			ResWork: dist.NewDeterministic(time.Millisecond),
			Children: []*CallNode{{
				Service: "backend",
				ReqWork: dist.NewDeterministic(8 * time.Millisecond),
			}},
		},
	}
	return App{
		Name: "two-tier",
		Services: []ServiceSpec{
			{Name: "frontend", Replicas: 1, Cores: 4},
			{Name: "backend", Replicas: 1, Cores: 2, ThreadPool: threadPool, DBPool: dbPool},
		},
		Mix: []WeightedRequest{{Type: rt, Weight: 1}},
	}
}

// allTraces returns every trace the cluster's warehouse retains.
func allTraces(c *Cluster) trace.View {
	return c.Warehouse().Window(math.MinInt64, math.MaxInt64)
}

// retainTraces declares c's warehouse, for a test that reads it after
// the run.
func retainTraces(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.RetainTraces(trace.DefaultRetention); err != nil {
		t.Fatal(err)
	}
}

// recordCompletions declares c's end-to-end completion log with the
// longest reach, for tests that read Completions.
func recordCompletions(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.RecordCompletions(trace.DefaultRetention); err != nil {
		t.Fatal(err)
	}
}

func mustCluster(t *testing.T, k *sim.Kernel, app App) *Cluster {
	t.Helper()
	c, err := New(k, app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSingleRequestLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(0, 0))
	var done *trace.Trace
	c.OnComplete(func(tr *trace.Trace) { done = tr.Retain() })
	c.SubmitMix()
	k.Run()
	if done == nil {
		t.Fatal("request never completed")
	}
	// 1ms frontend req + 8ms backend + 1ms frontend res = 10ms.
	if got := done.ResponseTime(); got < 9*time.Millisecond || got > 11*time.Millisecond {
		t.Errorf("response time = %v, want ~10ms", got)
	}
	recs := done.Records(nil)
	if len(recs) != 2 {
		t.Errorf("span count = %d, want 2", len(recs))
	}
	cp := done.CriticalPathServices()
	if len(cp) != 2 || cp[0] != "frontend" || cp[1] != "backend" {
		t.Errorf("critical path = %v", cp)
	}
	// Frontend blocked on the backend for ~8ms.
	fe := &recs[0]
	if fe.Blocked < 7*time.Millisecond || fe.Blocked > 9*time.Millisecond {
		t.Errorf("frontend blocked = %v, want ~8ms", fe.Blocked)
	}
	if got := fe.ProcessingTime(); got < time.Millisecond || got > 3*time.Millisecond {
		t.Errorf("frontend PT = %v, want ~2ms", got)
	}
	if c.Completed() != 1 || c.InFlight() != 0 {
		t.Errorf("completed=%d inflight=%d", c.Completed(), c.InFlight())
	}
}

func TestWarehouseAndLogsPopulated(t *testing.T) {
	k := sim.NewKernel(2)
	c := mustCluster(t, k, twoTier(0, 0))
	retainTraces(t, c)
	recordCompletions(t, c)
	if err := c.RecordSpans("backend", trace.DefaultRetention); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		k.Schedule(time.Duration(i)*20*time.Millisecond, c.SubmitMix)
	}
	k.Run()
	if c.Warehouse().Len() != 10 {
		t.Errorf("warehouse has %d traces, want 10", c.Warehouse().Len())
	}
	if c.Completions().Len() != 10 {
		t.Errorf("e2e log has %d, want 10", c.Completions().Len())
	}
	gets := 0
	all := allTraces(c)
	for i := range all.Len() {
		if all.At(i).Type == "get" {
			gets++
		}
	}
	if gets != 10 {
		t.Errorf("warehouse has %d traces of type get, want 10", gets)
	}
	be, err := c.Service("backend")
	if err != nil {
		t.Fatal(err)
	}
	if be.SpanLog().Len() != 10 {
		t.Errorf("backend span log has %d, want 10", be.SpanLog().Len())
	}
}

func TestThreadPoolLimitsConcurrency(t *testing.T) {
	k := sim.NewKernel(3)
	c := mustCluster(t, k, twoTier(2, 0))
	be, _ := c.Service("backend")
	maxConc := 0
	// Submit 10 simultaneous requests; sample backend concurrency.
	for i := 0; i < 10; i++ {
		c.SubmitMix()
	}
	tick := k.Every(time.Millisecond, func() {
		if q := be.Concurrency(); q > maxConc {
			maxConc = q
		}
	})
	k.RunUntil(sim.Time(2 * time.Second))
	tick.Stop()
	k.Run()
	if maxConc > 2 {
		t.Errorf("backend concurrency reached %d with thread pool 2", maxConc)
	}
	if c.Completed() != 10 {
		t.Errorf("completed %d, want 10", c.Completed())
	}
}

func TestThreadPoolQueueingDelaysRequests(t *testing.T) {
	// With pool 1 on a 2-core box, 4 simultaneous 8ms jobs serialize:
	// completions at ~8/16/24/32ms (plus frontend overheads).
	k := sim.NewKernel(4)
	c := mustCluster(t, k, twoTier(1, 0))
	var rts []time.Duration
	c.OnComplete(func(tr *trace.Trace) { rts = append(rts, tr.ResponseTime()) })
	for i := 0; i < 4; i++ {
		c.SubmitMix()
	}
	k.Run()
	if len(rts) != 4 {
		t.Fatalf("%d completions, want 4", len(rts))
	}
	// Max RT should be ~4*8+2 = 34ms; min ~10ms.
	var minRT, maxRT = rts[0], rts[0]
	for _, rt := range rts {
		if rt < minRT {
			minRT = rt
		}
		if rt > maxRT {
			maxRT = rt
		}
	}
	if minRT > 12*time.Millisecond {
		t.Errorf("fastest = %v, want ~10ms", minRT)
	}
	if maxRT < 30*time.Millisecond || maxRT > 38*time.Millisecond {
		t.Errorf("slowest = %v, want ~34ms", maxRT)
	}
}

func TestUnlimitedPoolSharesCPU(t *testing.T) {
	// Without a pool, 4 simultaneous 8ms jobs share 2 cores via PS: all
	// finish together at ~16ms+overheads.
	k := sim.NewKernel(5)
	app := twoTier(0, 0)
	app.Services[1].Overhead = 1e-9 // effectively disable overhead
	c := mustCluster(t, k, app)
	var rts []time.Duration
	c.OnComplete(func(tr *trace.Trace) { rts = append(rts, tr.ResponseTime()) })
	for i := 0; i < 4; i++ {
		c.SubmitMix()
	}
	k.Run()
	for _, rt := range rts {
		if rt < 15*time.Millisecond || rt > 21*time.Millisecond {
			t.Errorf("RT = %v, want ~18ms (PS sharing)", rt)
		}
	}
}

func TestDBPoolLimitsDownstreamCalls(t *testing.T) {
	// Async frontend-like service with DBPool 2 calling a slow backend:
	// downstream concurrency must never exceed 2.
	rt := &RequestType{
		Name: "q",
		Root: &CallNode{
			Service: "api",
			Children: []*CallNode{{
				Service: "db",
				ReqWork: dist.NewDeterministic(5 * time.Millisecond),
			}},
		},
	}
	app := App{
		Name: "dbtest",
		Services: []ServiceSpec{
			{Name: "api", Replicas: 1, Cores: 4, DBPool: 2},
			{Name: "db", Replicas: 1, Cores: 8},
		},
		Mix: []WeightedRequest{{Type: rt, Weight: 1}},
	}
	k := sim.NewKernel(7)
	c := mustCluster(t, k, app)
	db, _ := c.Service("db")
	api, _ := c.Service("api")
	maxDB, maxInUse := 0, 0
	for i := 0; i < 12; i++ {
		c.SubmitMix()
	}
	tick := k.Every(500*time.Microsecond, func() {
		if q := db.Concurrency(); q > maxDB {
			maxDB = q
		}
		if q := api.DBConnsInUse(); q > maxInUse {
			maxInUse = q
		}
	})
	k.RunUntil(sim.Time(time.Second))
	tick.Stop()
	k.Run()
	if maxDB > 2 {
		t.Errorf("db concurrency = %d with DBPool 2", maxDB)
	}
	if maxInUse > 2 {
		t.Errorf("conns in use = %d with DBPool 2", maxInUse)
	}
	if c.Completed() != 12 {
		t.Errorf("completed %d, want 12", c.Completed())
	}
}

func TestClientPoolLimitsPerTarget(t *testing.T) {
	rt := &RequestType{
		Name: "read",
		Root: &CallNode{
			Service: "timeline",
			Children: []*CallNode{{
				Service: "storage",
				ReqWork: dist.NewDeterministic(5 * time.Millisecond),
			}},
		},
	}
	app := App{
		Name: "cptest",
		Services: []ServiceSpec{
			{Name: "timeline", Replicas: 1, Cores: 4, ClientPools: map[string]int{"storage": 3}},
			{Name: "storage", Replicas: 1, Cores: 8},
		},
		Mix: []WeightedRequest{{Type: rt, Weight: 1}},
	}
	k := sim.NewKernel(8)
	c := mustCluster(t, k, app)
	tl, _ := c.Service("timeline")
	maxConns := 0
	for i := 0; i < 10; i++ {
		c.SubmitMix()
	}
	tick := k.Every(500*time.Microsecond, func() {
		if q := tl.ClientConnsInUse("storage"); q > maxConns {
			maxConns = q
		}
	})
	k.RunUntil(sim.Time(time.Second))
	tick.Stop()
	k.Run()
	if maxConns > 3 {
		t.Errorf("client conns in use = %d with pool 3", maxConns)
	}
	if c.Completed() != 10 {
		t.Errorf("completed %d, want 10", c.Completed())
	}
}

func TestParallelChildrenOverlap(t *testing.T) {
	mk := func(parallel bool) time.Duration {
		rt := &RequestType{
			Name: "fan",
			Root: &CallNode{
				Service:  "fe",
				Parallel: parallel,
				Children: []*CallNode{
					{Service: "a", ReqWork: dist.NewDeterministic(10 * time.Millisecond)},
					{Service: "b", ReqWork: dist.NewDeterministic(10 * time.Millisecond)},
				},
			},
		}
		app := App{
			Name: "fanout",
			Services: []ServiceSpec{
				{Name: "fe", Replicas: 1, Cores: 2},
				{Name: "a", Replicas: 1, Cores: 2},
				{Name: "b", Replicas: 1, Cores: 2},
			},
			Mix: []WeightedRequest{{Type: rt, Weight: 1}},
		}
		k := sim.NewKernel(9)
		c, err := New(k, app, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var rtime time.Duration
		c.OnComplete(func(tr *trace.Trace) { rtime = tr.ResponseTime() })
		c.SubmitMix()
		k.Run()
		return rtime
	}
	seq := mk(false)
	par := mk(true)
	if seq < 19*time.Millisecond || seq > 22*time.Millisecond {
		t.Errorf("sequential fan RT = %v, want ~20ms", seq)
	}
	if par < 9*time.Millisecond || par > 12*time.Millisecond {
		t.Errorf("parallel fan RT = %v, want ~10ms", par)
	}
}

func TestBlockedTimeUnionForParallelCalls(t *testing.T) {
	// Parallel children of 10ms and 4ms: blocked time is ~10ms (union),
	// not 14ms (sum).
	rt := &RequestType{
		Name: "fan",
		Root: &CallNode{
			Service:  "fe",
			Parallel: true,
			Children: []*CallNode{
				{Service: "a", ReqWork: dist.NewDeterministic(10 * time.Millisecond)},
				{Service: "b", ReqWork: dist.NewDeterministic(4 * time.Millisecond)},
			},
		},
	}
	app := App{
		Name: "union",
		Services: []ServiceSpec{
			{Name: "fe", Replicas: 1, Cores: 2},
			{Name: "a", Replicas: 1, Cores: 2},
			{Name: "b", Replicas: 1, Cores: 2},
		},
		Mix: []WeightedRequest{{Type: rt, Weight: 1}},
	}
	k := sim.NewKernel(10)
	c := mustCluster(t, k, app)
	var done *trace.Trace
	c.OnComplete(func(tr *trace.Trace) { done = tr.Retain() })
	c.SubmitMix()
	k.Run()
	if done == nil {
		t.Fatal("no completion")
	}
	root := done.Records(nil)[0]
	if root.Blocked < 9*time.Millisecond || root.Blocked > 11*time.Millisecond {
		t.Errorf("blocked = %v, want ~10ms (union)", root.Blocked)
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	app := twoTier(0, 0)
	app.Services[1].Replicas = 3
	k := sim.NewKernel(11)
	c := mustCluster(t, k, app)
	for i := 0; i < 9; i++ {
		c.SubmitMix()
	}
	k.Run()
	be, _ := c.Service("backend")
	for _, in := range be.Instances() {
		if got := in.Stats().Completed; got != 3 {
			t.Errorf("instance %s completed %d, want 3", in.ID(), got)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	k := sim.NewKernel(12)
	base := twoTier(0, 0)
	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"no services", func(a *App) { a.Services = nil }},
		{"dup service", func(a *App) { a.Services = append(a.Services, a.Services[0]) }},
		{"zero replicas", func(a *App) { a.Services[0].Replicas = 0 }},
		{"zero cores", func(a *App) { a.Services[0].Cores = 0 }},
		{"negative pool", func(a *App) { a.Services[0].ThreadPool = -1 }},
		{"no mix", func(a *App) { a.Mix = nil }},
		{"zero weight", func(a *App) { a.Mix[0].Weight = 0 }},
		{"unknown service in tree", func(a *App) {
			a.Mix[0].Type = &RequestType{Name: "bad", Root: &CallNode{Service: "ghost"}}
		}},
		{"unknown client pool target", func(a *App) {
			a.Services[0].ClientPools = map[string]int{"ghost": 5}
		}},
		{"empty name", func(a *App) { a.Services[0].Name = "" }},
	}
	for _, tt := range cases {
		app := twoTier(0, 0)
		app.Services = append([]ServiceSpec{}, base.Services...)
		app.Mix = []WeightedRequest{{Type: base.Mix[0].Type, Weight: 1}}
		tt.mutate(&app)
		if _, err := New(k, app, Options{}); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
	if _, err := New(nil, twoTier(0, 0), Options{}); err == nil {
		t.Error("nil kernel: expected error")
	}
}

func TestMixWeights(t *testing.T) {
	light := &RequestType{Name: "light", Root: &CallNode{Service: "frontend", ReqWork: dist.NewDeterministic(time.Millisecond)}}
	heavy := &RequestType{Name: "heavy", Root: &CallNode{Service: "frontend", ReqWork: dist.NewDeterministic(time.Millisecond)}}
	app := twoTier(0, 0)
	app.Mix = []WeightedRequest{{Type: light, Weight: 3}, {Type: heavy, Weight: 1}}
	k := sim.NewKernel(14)
	c := mustCluster(t, k, app)
	counts := map[string]int{}
	c.OnComplete(func(tr *trace.Trace) { counts[tr.Type]++ })
	for i := 0; i < 4000; i++ {
		k.Schedule(time.Duration(i)*100*time.Microsecond, c.SubmitMix)
	}
	k.Run()
	frac := float64(counts["light"]) / 4000
	if frac < 0.71 || frac > 0.79 {
		t.Errorf("light fraction = %g, want ~0.75", frac)
	}
}

func TestSetMixSwitchesAtRuntime(t *testing.T) {
	light := &RequestType{Name: "light", Root: &CallNode{Service: "frontend", ReqWork: dist.NewDeterministic(time.Millisecond)}}
	heavy := &RequestType{Name: "heavy", Root: &CallNode{Service: "frontend", ReqWork: dist.NewDeterministic(5 * time.Millisecond)}}
	app := twoTier(0, 0)
	app.Mix = []WeightedRequest{{Type: light, Weight: 1}}
	k := sim.NewKernel(15)
	c := mustCluster(t, k, app)
	counts := map[string]int{}
	c.OnComplete(func(tr *trace.Trace) { counts[tr.Type]++ })
	c.SubmitMix()
	if err := c.SetMix([]WeightedRequest{{Type: heavy, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	c.SubmitMix()
	k.Run()
	if counts["light"] != 1 || counts["heavy"] != 1 {
		t.Errorf("counts = %v, want one of each", counts)
	}
	if err := c.SetMix(nil); err == nil {
		t.Error("empty mix: expected error")
	}
}

// TestTraceReadAfterCallbackPanics checks that the *Trace an OnComplete
// callback gets is valid only during the callback: reading a kept
// pointer afterwards panics instead of returning a reused tree, while a
// retained copy still reads back the same trace.
func TestTraceReadAfterCallbackPanics(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(0, 0))
	var kept, retained *trace.Trace
	var rt time.Duration
	c.OnComplete(func(tr *trace.Trace) {
		kept, retained, rt = tr, tr.Retain(), tr.ResponseTime()
	})
	c.SubmitMix()
	k.Run()
	if kept == nil {
		t.Fatal("request never completed")
	}
	if got, spans := retained.ResponseTime(), len(retained.Records(nil)); got != rt || spans != 2 {
		t.Errorf("retained copy: response time %v with %d spans, want %v with 2", got, spans, rt)
	}
	for _, read := range []struct {
		name string
		fn   func()
	}{
		{"ResponseTime", func() { kept.ResponseTime() }},
		{"Records", func() { kept.Records(nil) }},
		{"Degraded", func() { kept.Degraded() }},
		{"Retain", func() { kept.Retain() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a trace kept past its callback did not panic", read.name)
				}
			}()
			read.fn()
		}()
	}
}

func TestTraceIDsUnique(t *testing.T) {
	k := sim.NewKernel(16)
	c := mustCluster(t, k, twoTier(0, 0))
	seen := map[trace.ID]bool{}
	c.OnComplete(func(tr *trace.Trace) {
		if seen[tr.ID] {
			t.Errorf("duplicate trace ID %d", tr.ID)
		}
		seen[tr.ID] = true
	})
	for i := 0; i < 50; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, c.SubmitMix)
	}
	k.Run()
	if len(seen) != 50 {
		t.Errorf("%d unique traces, want 50", len(seen))
	}
}
