package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/dist"
	"sora/internal/knee"
	"sora/internal/metrics"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/topology"
	"sora/internal/trace"
	"sora/internal/workload"
)

// The ablation experiments isolate the design choices DESIGN.md calls
// out:
//
//	ablation-model    — goodput (SCG) vs throughput (SCT) knee input
//	ablation-deadline — propagated deadline vs static SLA threshold
//	ablation-degree   — Kneedle auto degree tuning vs fixed degrees
//	ablation-localize — PCC+utilization localization vs utilization-only
func init() {
	register(Experiment{
		ID:    "ablation-model",
		Title: "Ablation: SCG (goodput) vs SCT (throughput) end-to-end impact",
		Run:   runAblationModel,
	})
	register(Experiment{
		ID:    "ablation-deadline",
		Title: "Ablation: propagated deadline vs static SLA threshold in SCG",
		Run:   runAblationDeadline,
	})
	register(Experiment{
		ID:    "ablation-degree",
		Title: "Ablation: Kneedle smoothing degree (auto vs fixed)",
		Run:   runAblationDegree,
	})
	register(Experiment{
		ID:    "ablation-localize",
		Title: "Ablation: critical-service localization (PCC+util vs util-only)",
		Run:   runAblationLocalize,
	})
}

// runAblationModel re-runs the Figure 11 scenario under an extra-tight
// SLO where the model difference is starkest, reporting goodput and tail
// latency for SCG vs SCT adaptation on identical hardware scaling.
func runAblationModel(p Params, w io.Writer) error {
	sla := 250 * time.Millisecond
	base := cartRunConfig{
		trace:       workload.LargeVariationTrace(),
		peakUsers:   1800,
		duration:    8 * time.Minute,
		sla:         sla,
		gpThreshold: sla,
		seed:        p.Seed,
		initThreads: 5,
	}
	results, err := runCartStrategies(p, base, stratVPASora, stratConScale)
	if err != nil {
		return err
	}
	scg, sct := results[0], results[1]
	fmt.Fprintf(w, "\nSLO %v, identical VPA hardware scaling, only the model differs:\n", sla)
	fmt.Fprintf(w, "%-22s %12s %12s %16s\n", "model", "p95[ms]", "p99[ms]", "goodput[req/s]")
	fmt.Fprintf(w, "%-22s %12.0f %12.0f %16.0f\n", "SCG (goodput knee)", scg.p95.Seconds()*1000, scg.p99.Seconds()*1000, scg.goodput)
	fmt.Fprintf(w, "%-22s %12.0f %12.0f %16.0f\n", "SCT (throughput knee)", sct.p95.Seconds()*1000, sct.p99.Seconds()*1000, sct.goodput)
	if sct.goodput > 0 {
		fmt.Fprintf(w, "goodput ratio SCG/SCT: %.2fx\n", scg.goodput/sct.goodput)
	}
	return nil
}

// runAblationDeadline compares the SCG estimate produced with the
// propagated per-service threshold against one produced with the raw
// end-to-end SLA as the threshold. The scenario is a deep chain whose
// upstream tiers consume a substantial share of the deadline budget —
// exactly where Eq. (3)'s propagation matters: gateway and aggregator
// burn ~8 ms of CPU before the pooled worker tier ever sees the request,
// so a 40 ms SLA leaves the worker only ~32 ms.
func runAblationDeadline(p Params, w io.Writer) error {
	const sla = 40 * time.Millisecond

	buildChain := func(pool int) cluster.App {
		ln := func(mean time.Duration) dist.Distribution {
			return dist.NewLogNormal(mean, 0.4)
		}
		rt := &cluster.RequestType{
			Name: "deep",
			Root: &cluster.CallNode{
				Service: "gateway",
				ReqWork: ln(2 * time.Millisecond),
				ResWork: ln(time.Millisecond),
				Children: []*cluster.CallNode{{
					Service: "aggregator",
					ReqWork: ln(3 * time.Millisecond),
					ResWork: ln(2 * time.Millisecond),
					Children: []*cluster.CallNode{{
						Service: "worker",
						ReqWork: ln(1500 * time.Microsecond),
						ResWork: ln(500 * time.Microsecond),
						Children: []*cluster.CallNode{{
							Service: "worker-db",
							ReqWork: ln(6 * time.Millisecond),
						}},
					}},
				}},
			},
		}
		return cluster.App{
			Name: "deep-chain",
			Services: []cluster.ServiceSpec{
				{Name: "gateway", Replicas: 1, Cores: 8, Overhead: 0.0005},
				{Name: "aggregator", Replicas: 1, Cores: 8, Overhead: 0.0005},
				{Name: "worker", Replicas: 1, Cores: 2, ThreadPool: pool},
				{Name: "worker-db", Replicas: 1, Cores: 24, Overhead: 0.008},
			},
			Mix: []cluster.WeightedRequest{{Type: rt, Weight: 1}},
		}
	}
	ref := cluster.ResourceRef{Service: "worker", Kind: cluster.PoolThreads}

	dur := p.scale(3 * time.Minute)
	r, err := buildPostRun(p.unitParams(p.Telemetry.Group("profile")).observe(scenario.Scenario{
		Seed:     p.Seed,
		App:      buildChain(60),
		Refs:     []cluster.ResourceRef{ref},
		Target:   workload.TraceUsers(workload.LargeVariationTrace(), dur, 1250),
		Duration: dur,
	}))
	if err != nil {
		return err
	}
	// The model reads the whole run's traces after it and the drain, so
	// they are declared at the cap, as its span log is, before the run.
	if err := r.C.RetainScans(trace.DefaultRetention); err != nil {
		return err
	}
	scg, err := core.NewSCG(r.C, r.Mon, core.SCGConfig{SLA: sla, Window: dur, PlateauTolerance: 0.05})
	if err != nil {
		return err
	}
	execute(r)
	propagated, err := scg.PropagateDeadline(sim.Time(dur), "worker")
	if err != nil {
		return err
	}

	estimate := func(threshold time.Duration) (int, error) {
		qs, gps, err := scg.CollectPairs(sim.Time(dur), ref, "worker", threshold)
		if err != nil {
			return 0, err
		}
		res, err := scg.Estimate(qs, gps)
		if err != nil {
			return 0, err
		}
		return int(res.X + 0.5), nil
	}
	withProp, err := estimate(propagated)
	if err != nil {
		return err
	}
	withStatic, err := estimate(sla)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nend-to-end SLA %v; propagated worker threshold %v\n", sla, propagated.Round(time.Millisecond))
	fmt.Fprintf(w, "estimate with propagated deadline:     %d threads\n", withProp)
	fmt.Fprintf(w, "estimate with static SLA as threshold: %d threads\n", withStatic)

	// Score both settings by end-to-end goodput against the SLA.
	valGrp := p.Telemetry.Group("validate")
	score := func(i, size int) (float64, error) {
		vdur := p.scale(100 * time.Second)
		vr, err := simulate(p.unitParams(valGrp.Unit(i, fmt.Sprintf("pool-%d", size))).observe(scenario.Scenario{
			Seed:     p.Seed + 999,
			App:      buildChain(size),
			Target:   workload.ConstantUsers(900),
			Duration: vdur,
		}))
		if err != nil {
			return 0, err
		}
		return vr.E2E.GoodputRate(sim.Time(10*time.Second), sim.Time(vdur), sla), nil
	}
	// Score both settings (two independent validation runs) on the pool;
	// identical settings need only one run.
	gpProp, gpStatic := 0.0, 0.0
	if withStatic == withProp {
		if gpProp, err = score(0, withProp); err != nil {
			return err
		}
		gpStatic = gpProp
	} else {
		gps, err := parMap(p, 2, func(i int) (float64, error) {
			return score(i, []int{withProp, withStatic}[i])
		})
		if err != nil {
			return err
		}
		gpProp, gpStatic = gps[0], gps[1]
	}
	fmt.Fprintf(w, "end-to-end goodput(SLA) with propagated-deadline setting: %.0f req/s\n", gpProp)
	fmt.Fprintf(w, "end-to-end goodput(SLA) with static-threshold setting:    %.0f req/s\n", gpStatic)
	fmt.Fprintf(w, "(the static threshold ignores the ~8ms the gateway/aggregator tiers consume,\n")
	fmt.Fprintf(w, " over-estimating the worker's latency budget and hence its optimal pool)\n")
	return nil
}

// runAblationDegree scores knee estimates across fixed smoothing degrees
// and the auto tuner on the same profiling data.
func runAblationDegree(p Params, w io.Writer) error {
	fc := fig9Cases()[0]
	dur := p.scale(3 * time.Minute)
	app, mix := fc.build(fc.estPool)
	r, err := simulatePostRun(p.observe(scenario.Scenario{
		Seed:     p.Seed,
		App:      app,
		Mix:      mix,
		Refs:     []cluster.ResourceRef{fc.ref},
		Target:   workload.TraceUsers(workload.LargeVariationTrace(), dur, fc.estUsers),
		Duration: dur,
	}))
	if err != nil {
		return err
	}
	conc, err := r.Mon.Concurrency(fc.ref)
	if err != nil {
		return err
	}
	svc, err := r.C.Service(fc.measured())
	if err != nil {
		return err
	}
	qs, gps := metrics.ConcurrencyGoodputPairs(conc, svc.SpanLog(), 0, sim.Time(dur), core.DefaultSampleInterval, fc.threshold)
	fmt.Fprintf(w, "\n%d scatter samples; knee per smoothing degree:\n", len(qs))
	fmt.Fprintf(w, "%10s %10s %10s %10s\n", "degree", "knee", "fallback", "fit")
	for deg := 2; deg <= 10; deg++ {
		res, err := knee.Find(qs, gps, knee.Options{Degree: deg})
		if err != nil {
			fmt.Fprintf(w, "%10d %10s %10s %10s\n", deg, "-", "-", "error")
			continue
		}
		fmt.Fprintf(w, "%10d %10.1f %10v %10s\n", deg, res.X, res.Fallback, "ok")
	}
	auto, err := knee.FindAuto(qs, gps, knee.AutoOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s %10.1f %10v   (selected degree %d)\n", "auto", auto.X, auto.Fallback, auto.Degree)
	fmt.Fprintf(w, "(paper 3.3: degrees 5-8 fit 1-minute profiles; too low misses the knee,\n")
	fmt.Fprintf(w, " too high overfits noise — the auto tuner picks the minimum working degree)\n")
	return nil
}

// runAblationLocalize compares the full two-step localizer against a
// utilization-only variant under a scenario engineered to fool pure
// utilization ranking: a busy-but-noncritical sibling service.
func runAblationLocalize(p Params, w io.Writer) error {
	dur := p.scale(2 * time.Minute)
	// getCatalogue fans out to Cart and Catalogue; the 2-core Cart with a
	// tiny pool is the latency culprit, while 4-core Catalogue runs hot
	// on CPU. Utilization-only ranking is drawn to whichever service
	// shows the highest CPU; the PCC step ties latency variance to Cart.
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 4 // deliberately under-allocated: queueing -> latency variance
	app := topology.SockShop(cfg)
	mix := []cluster.WeightedRequest{}
	for _, wr := range app.Mix {
		if wr.Type.Name == topology.ReqGetCatalogue {
			mix = append(mix, cluster.WeightedRequest{Type: wr.Type, Weight: 1})
		}
	}
	r, err := p.observe(scenario.Scenario{
		Seed:     p.Seed,
		App:      app,
		Mix:      mix,
		Target:   workload.ConstantUsers(900),
		Duration: dur,
	}).Build()
	if err != nil {
		return err
	}
	// The scenario measures no resource, so its monitor declares no
	// trace reader; the localizer and the PCC table below read the
	// whole run's scan records after it.
	if err := r.C.RetainScans(trace.DefaultRetention); err != nil {
		return err
	}
	execute(r)

	scg, err := core.NewSCG(r.C, r.Mon, core.SCGConfig{SLA: goodputRTT, Window: dur})
	if err != nil {
		return err
	}
	full, err := scg.CriticalService(sim.Time(dur))
	if err != nil {
		return err
	}
	// Utilization-only: rank monitored services by mean utilization.
	utilOnly, bestUtil := "", -1.0
	for _, name := range r.C.ServiceNames() {
		if u := r.Mon.MeanUtil(name, 0, sim.Time(dur)); u > bestUtil {
			utilOnly, bestUtil = name, u
		}
	}
	// Report the PCC table for transparency.
	fmt.Fprintf(w, "\n%-16s %10s %10s\n", "service", "meanUtil", "PCC(PT,RT)")
	traces := r.C.Warehouse().Window(0, sim.Time(dur))
	rts := make([]float64, traces.Len())
	// pts[id] holds service id's per-trace processing times; nil until
	// a span of the service is seen.
	pts := make([][]float64, len(r.C.ServiceNames()))
	var buf []trace.ScanRecord
	for ti := range traces.Len() {
		tr := traces.At(ti)
		rts[ti] = float64(tr.ResponseTime()) / float64(time.Millisecond)
		for _, rec := range tr.Scan(&buf) {
			arr := pts[rec.Service]
			if arr == nil {
				arr = make([]float64, traces.Len())
				pts[rec.Service] = arr
			}
			arr[ti] += float64(rec.PT) / float64(time.Millisecond)
		}
	}
	for id, name := range r.C.ServiceNames() {
		arr := pts[id]
		if arr == nil {
			continue
		}
		pcc, err := stats.Pearson(arr, rts)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%-16s %10.2f %10.2f\n", name, r.Mon.MeanUtil(name, 0, sim.Time(dur)), pcc)
	}
	fmt.Fprintf(w, "\nfull localizer (util screen + PCC): %s\n", full)
	fmt.Fprintf(w, "utilization-only localizer:        %s\n", utilOnly)
	fmt.Fprintf(w, "(the PCC step identifies the latency-critical Cart even when another\n")
	fmt.Fprintf(w, " service shows comparable or higher CPU utilization)\n")
	return nil
}
