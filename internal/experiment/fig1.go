package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
)

// Figure 1 is the paper's motivating example: Kubernetes Horizontal Pod
// Autoscaling scales out the bottlenecked Catalogue service under a load
// step, but every new replica carries the statically configured database
// connection pool, over-allocating connections to catalogue-db and
// leaving large response-time fluctuations. Sora attached to the same
// HPA re-adapts the pool and stabilizes latency.
func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: K8s HPA vs Sora — Catalogue DB connection over-allocation on scale-out",
		Run:   runFig1,
	})
}

func runFig1(p Params, w io.Writer) error {
	dur := p.scale(3 * time.Minute)
	stepAt := dur / 4

	type outcome struct {
		label    string
		tl       *timeline
		p99      time.Duration
		goodput  float64
		events   []core.AdaptationEvent
		replicas float64
	}
	run := func(withSora bool, tel *telemetry.Recorder) (*outcome, error) {
		cfg := topology.DefaultSockShop()
		cfg.CatalogueConns = 30 // liberal static pool: fine at 1 replica, excessive at 3
		app := topology.SockShop(cfg)
		// Smaller catalogue pods so horizontal scale-out is the right
		// hardware response, with catalogue-db the shared tier that a
		// replicated-and-over-allocated connection pool can thrash.
		for i := range app.Services {
			if app.Services[i].Name == topology.Catalogue {
				app.Services[i].Cores = 2
			}
		}
		ref := cluster.ResourceRef{Service: topology.Catalogue, Kind: cluster.PoolDBConns}
		// Load step: light browsing, then a flash crowd.
		target := func(t sim.Time) int {
			if t < stepAt {
				return 1100
			}
			return 2400
		}
		s := scenario.Scenario{
			Seed:     p.Seed,
			App:      app,
			Mix:      topology.BrowseOnlyMix(app),
			Refs:     []cluster.ResourceRef{ref},
			Target:   target,
			Duration: dur,
			Scaler:   scenario.HPA{Service: topology.Catalogue, MaxReplicas: 4},
		}
		if withSora {
			s.Model = &scenario.Model{
				Config:  core.SCGConfig{SLA: goodputRTT, Window: 30 * time.Second},
				Managed: []core.ManagedResource{{Ref: ref, Min: 2, Max: 100}},
				Warmup:  20 * time.Second,
			}
		}
		r, err := p.unitParams(tel).observe(s).Build()
		if err != nil {
			return nil, err
		}

		catalogue, err := r.C.Service(topology.Catalogue)
		if err != nil {
			return nil, err
		}
		tl := newTimeline(r.K, time.Second)
		tl.meanRT("rt_ms", r.E2E)
		tl.utilPct("catalogue_cpu_util_pct", catalogue)
		tl.poolInUse("established_db_conns", r.C, ref)
		tl.column("db_conn_pool_total", func() float64 {
			size, err := r.C.PoolSize(ref)
			if err != nil {
				return 0
			}
			return float64(size * catalogue.Replicas())
		})
		tl.replicas("replicas", catalogue)
		r.Attach(tl)
		execute(r)

		o := &outcome{tl: tl}
		warm := sim.Time(5 * time.Second)
		if p99, err := r.E2E.Percentile(99, warm, sim.Time(dur)); err == nil {
			o.p99 = p99
		}
		o.goodput = r.E2E.GoodputRate(warm, sim.Time(dur), goodputRTT)
		if r.Ctl != nil {
			o.events = r.Ctl.Events()
		}
		o.replicas = float64(catalogue.Replicas())
		return o, nil
	}

	// The baseline and Sora cases are independent simulations; run both
	// on the worker pool.
	grp := p.Telemetry.Group("cases")
	outcomes, err := parMap(p, 2, func(i int) (*outcome, error) {
		o, err := run(i == 1, grp.Unit(i, []string{"HPA", "Sora"}[i]))
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", []string{"HPA", "Sora"}[i], err)
		}
		o.label = []string{"fig1_HPA", "fig1_Sora"}[i]
		return o, nil
	})
	if err != nil {
		return err
	}
	hpaOnly, sora := outcomes[0], outcomes[1]

	for _, o := range []*outcome{hpaOnly, sora} {
		if !p.Quiet {
			plotASCII(w, o.label+" — end-to-end latency [ms]", 96, 8,
				namedSeries{name: "rt_ms", values: o.tl.series("rt_ms"), mark: '*'})
			plotASCII(w, o.label+" — catalogue CPU util [%] & replicas", 96, 7,
				namedSeries{name: "util%", values: o.tl.series("catalogue_cpu_util_pct"), mark: '*'},
				namedSeries{name: "replicas", values: o.tl.series("replicas"), mark: '-'})
			plotASCII(w, o.label+" — established DB connections vs pool total", 96, 7,
				namedSeries{name: "established", values: o.tl.series("established_db_conns"), mark: '*'},
				namedSeries{name: "pool", values: o.tl.series("db_conn_pool_total"), mark: '-'})
		}
		for _, e := range o.events {
			fmt.Fprintf(w, "%s adaptation: %s\n", o.label, e)
		}
		if err := writeCSV(p, "timeline_"+o.label, o.tl.header(), o.tl.rows); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "\nscale-out step at t=%v; both cases end at %v catalogue replicas\n", stepAt, hpaOnly.replicas)
	fmt.Fprintf(w, "%-10s %12s %16s\n", "case", "p99[ms]", "goodput[req/s]")
	fmt.Fprintf(w, "%-10s %12.0f %16.0f\n", "HPA", hpaOnly.p99.Seconds()*1000, hpaOnly.goodput)
	fmt.Fprintf(w, "%-10s %12.0f %16.0f\n", "Sora", sora.p99.Seconds()*1000, sora.goodput)
	fmt.Fprintf(w, "(paper: HPA's response-time spikes persist after scale-out because the per-replica\n")
	fmt.Fprintf(w, " DB connection pool over-allocates; Sora re-adapts the pool and flattens the spikes)\n")
	return nil
}
