package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"sora/internal/bench"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/knee"
	"sora/internal/node"
	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/topology"
	"sora/internal/workload"
)

// Layer probes: timed calls into one layer's public functions, made from
// outside the layer. Each is repeated and reported as the median with
// its sample count. The kernel, PS-server and request-path probes reuse
// internal/bench's Benchmark functions; the controller, knee, metrics,
// stats and trace probes run on one warmed Social Network window.

// probeWindow is the window the controller-side probes read, the SCG
// window the chaos, ctrlplane and fig12 experiments configure.
const probeWindow = 45 * time.Second

// runProbes times every layer probe.
func runProbes(quick bool, spans *spanLog) ([]metricValue, error) {
	root := spans.begin("probes", 0)
	defer spans.end(root)
	micro, err := microProbes(quick, spans, root)
	if err != nil {
		return nil, err
	}
	window, err := windowProbes(quick, spans, root)
	if err != nil {
		return nil, err
	}
	return append(micro, window...), nil
}

// microProbes runs the internal/bench suite functions.
func microProbes(quick bool, spans *spanLog, parent int) ([]metricValue, error) {
	samples, benchtime := 5, "100ms"
	if quick {
		samples, benchtime = 1, "20x"
	}
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	one := func(name string, fn func(*testing.B)) (ns, allocs float64) {
		id := spans.begin(name, parent)
		r := testing.Benchmark(fn)
		spans.end(id)
		return float64(r.NsPerOp()), float64(r.AllocsPerOp())
	}
	run := func(name string, fn func(*testing.B)) (ns, allocs []float64) {
		for i := 0; i < samples; i++ {
			t, a := one(name, fn)
			ns, allocs = append(ns, t), append(allocs, a)
		}
		return ns, allocs
	}
	n := fmt.Sprintf("  (median of %d)", samples)
	// The live and reference event loops alternate so machine drift hits
	// both sides of the ratio alike.
	var live, ref, liveAllocs []float64
	for i := 0; i < samples; i++ {
		t, a := one("bench/eventloop", bench.BenchmarkEventLoop)
		live, liveAllocs = append(live, t), append(liveAllocs, a)
		t, _ = one("bench/eventloop/containerheap", bench.BenchmarkEventLoopContainerHeap)
		ref = append(ref, t)
	}
	cancel, _ := run("bench/cancel", bench.BenchmarkScheduleCancel)
	reset, _ := run("bench/reset", bench.BenchmarkTimerReset)
	job, jobAllocs := run("bench/psq", bench.BenchmarkPSQSubmit)
	req, reqAllocs := run("bench/request", bench.BenchmarkSocialNetworkRequest)
	cp, cpAllocs := run("bench/request/ctrlplane", benchmarkCtrlPlaneRequest)
	flight, _ := run("bench/request/flight", bench.BenchmarkRequestWithFlightRecorder)
	return []metricValue{
		{"sim.event_ns", median(live), "ns", n},
		{"sim.event_allocs", median(liveAllocs), "allocs", n},
		{"sim.ref_event_ns", median(ref), "ns", n},
		{"sim.ref_ratio", median(live) / median(ref), "ratio", n},
		{"sim.cancel_ns", median(cancel), "ns", n},
		{"sim.reset_ns", median(reset), "ns", n},
		{"psq.job_ns", median(job), "ns", n},
		{"psq.job_allocs", median(jobAllocs), "allocs", n},
		{"cluster.request_us", median(req) / 1e3, "us", n},
		{"cluster.request_allocs", median(reqAllocs), "allocs", n},
		{"cluster.request_cp_us", median(cp) / 1e3, "us", n},
		{"cluster.request_cp_allocs", median(cpAllocs), "allocs", n},
		{"cluster.request_flight_us", median(flight) / 1e3, "us", n},
	}, nil
}

// benchmarkCtrlPlaneRequest is bench.BenchmarkSocialNetworkRequest on
// the control-plane dispatch path: one unbounded node, no cold start, no
// endpoint lag, round-robin over ready replicas.
func benchmarkCtrlPlaneRequest(b *testing.B) {
	k := sim.NewKernel(1)
	c, err := cluster.New(k, topology.SocialNetwork(topology.SocialNetworkConfig{}), cluster.Options{
		ControlPlane: &node.Config{Nodes: 1, NodeCores: 1e6, LB: node.LBRoundRobin},
	})
	if err != nil {
		b.Fatal(err)
	}
	k.Run() // every pod becomes ready and visible
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SubmitMix()
		k.Run()
	}
}

// windowProbes warms a Social Network home-timeline deployment (2000
// users, 2 virtual minutes) and times the controller's read path on the
// trailing 45 s window.
func windowProbes(quick bool, spans *spanLog, parent int) ([]metricValue, error) {
	samples, warmFor := 9, 2*time.Minute
	if quick {
		samples, warmFor = 1, 20*time.Second
	}
	r, err := newRig(rigConfig{
		seed:   1,
		app:    topology.SocialNetwork(topology.DefaultSocialNetwork()),
		mix:    topology.HomeTimelineOnlyMix(false),
		refs:   []cluster.ResourceRef{homeTimelineConns},
		target: workload.ConstantUsers(2000),
	})
	if err != nil {
		return nil, err
	}
	id := spans.begin("probes/warm", parent)
	r.execute(warmFor, 0, nil)
	spans.end(id)
	scg, err := core.NewSCG(r.c, r.mon, core.SCGConfig{SLA: goodputSLA, Window: probeWindow})
	if err != nil {
		return nil, err
	}
	now := r.k.Now()
	since := now - sim.Time(probeWindow)
	managed := []core.ManagedResource{{Ref: homeTimelineConns, Min: 4, Max: 300}}
	threshold, err := scg.PropagateDeadline(now, topology.PostStorage)
	if err != nil {
		threshold = goodputSLA
	}
	qs, gps, err := scg.CollectPairs(now, homeTimelineConns, topology.PostStorage, threshold)
	if err != nil {
		return nil, err
	}
	log := r.c.Completions()
	completions := len(log.Window(since, now))

	// probe returns the median host duration of fn in ns/unit.
	probe := func(name string, unit float64, fn func()) float64 {
		var ds []float64
		for i := 0; i < samples; i++ {
			id := spans.begin(name, parent)
			start := time.Now() //soravet:allow wallclock layer probes measure host time
			fn()
			ds = append(ds, float64(time.Since(start))/unit) //soravet:allow wallclock layer probes measure host time
			spans.end(id)
		}
		return median(ds)
	}
	const ms, us = 1e6, 1e3
	n := fmt.Sprintf("  (median of %d)", samples)
	return []metricValue{
		{"core.recommend_ms", probe("core/recommend", ms, func() { _, _ = scg.Recommend(now, managed) }), "ms", n},
		{"core.critical_ms", probe("core/critical", ms, func() { _, _ = scg.CriticalService(now) }), "ms", n},
		{"core.collect_pairs_us", probe("core/collect_pairs", us, func() {
			_, _, _ = scg.CollectPairs(now, homeTimelineConns, topology.PostStorage, threshold)
		}), "us", n},
		{"knee.find_us", probe("knee/find_auto", us, func() { _, _ = knee.FindAuto(qs, gps, knee.AutoOptions{}) }), "us", n},
		{"metrics.percentile_us", probe("metrics/percentile", us, func() { _, _ = log.Percentile(99, since, now) }), "us",
			fmt.Sprintf("%s over %d completions", n, completions)},
		{"stats.sketch_quantile_us", probe("stats/sketch_quantile", us, func() {
			sk := stats.NewSketch(0)
			for _, c := range log.Window(since, now) {
				sk.Observe(float64(c.RT) / 1e6)
			}
			_, _ = sk.Quantile(99)
		}), "us", n},
		{"trace.window_us", probe("trace/window", us, func() { _ = r.c.Warehouse().Window(since, now) }), "us", n},
	}, nil
}
