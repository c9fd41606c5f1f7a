package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/core"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// Figure 12 evaluates system-state drifting: the Social Network's
// read-home-timeline workload runs under the Large Variation trace with
// Kubernetes HPA scaling Post Storage horizontally; at 450 s the request
// type changes from light (2 posts) to heavy (10 posts). The static
// request-connection allocation to Post Storage becomes the bottleneck
// after the drift; Sora re-estimates and grows the pool with the replica
// count.
func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: K8s HPA vs Sora under request-type drift (Post Storage)",
		Run:   runFig12,
	})
}

func runFig12(p Params, w io.Writer) error {
	dur := p.scale(12 * time.Minute)
	driftAt := time.Duration(float64(dur) * 450.0 / 720.0)

	type outcome struct {
		label    string
		tl       *timeline
		p99      time.Duration
		goodput  float64
		events   []core.AdaptationEvent
		replicas int
		conns    int
	}

	run := func(withSora bool, tel *telemetry.Recorder) (*outcome, error) {
		cfg := topology.DefaultSocialNetwork()
		cfg.PostStorageConns = 15 // the static allocation of the baseline case
		cfg.PostStorageCores = 2
		s := scenario.SocialNetworkReadPath(cfg)
		s.Seed = p.Seed
		s.Target = workload.TraceUsers(workload.LargeVariationTrace(), dur, 3200)
		s.Duration = dur
		if !withSora {
			s.Model = nil
		}
		r, err := p.unitParams(tel).observe(s).Build()
		if err != nil {
			return nil, err
		}
		ref := s.Refs[0]
		// Request-type drift at 450s (scaled).
		r.K.At(sim.Time(driftAt), func() {
			if err := r.C.SetMix(topology.HomeTimelineOnlyMix(true)); err != nil {
				panic(err) // static mixes validated at build time
			}
		})

		ps, err := r.C.Service(topology.PostStorage)
		if err != nil {
			return nil, err
		}
		tl := newTimeline(r.K, time.Second)
		tl.meanRT("rt_ms", r.E2E)
		tl.goodput("goodput_rps", r.E2E, goodputRTT)
		tl.utilPct("ps_cpu_util_pct", ps)
		tl.poolSize("connections_pool", r.C, ref)
		tl.poolInUse("connections_running", r.C, ref)
		tl.replicas("ps_replicas", ps)
		r.Attach(tl)
		execute(r)

		o := &outcome{tl: tl, replicas: ps.Replicas()}
		warm := sim.Time(10 * time.Second)
		if p99, err := r.E2E.Percentile(99, warm, sim.Time(dur)); err == nil {
			o.p99 = p99
		}
		o.goodput = r.E2E.GoodputRate(warm, sim.Time(dur), goodputRTT)
		if r.Ctl != nil {
			o.events = r.Ctl.Events()
		}
		if size, err := r.C.PoolSize(ref); err == nil {
			o.conns = size
		}
		return o, nil
	}

	grp := p.Telemetry.Group("cases")
	outcomes, err := parMap(p, 2, func(i int) (*outcome, error) {
		o, err := run(i == 1, grp.Unit(i, []string{"HPA", "Sora"}[i]))
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", []string{"HPA", "Sora"}[i], err)
		}
		o.label = []string{"fig12_HPA", "fig12_Sora"}[i]
		return o, nil
	})
	if err != nil {
		return err
	}
	hpaOnly, sora := outcomes[0], outcomes[1]

	for _, o := range []*outcome{hpaOnly, sora} {
		if !p.Quiet {
			plotASCII(w, o.label+" — end-to-end latency [ms] (request type change mid-run)", 96, 8,
				namedSeries{name: "rt_ms", values: o.tl.series("rt_ms"), mark: '*'})
			plotASCII(w, o.label+" — connections to Post Storage (pool vs running)", 96, 7,
				namedSeries{name: "pool", values: o.tl.series("connections_pool"), mark: '-'},
				namedSeries{name: "running", values: o.tl.series("connections_running"), mark: '*'})
			plotASCII(w, o.label+" — Post Storage replicas & CPU util [%]", 96, 7,
				namedSeries{name: "replicas", values: o.tl.series("ps_replicas"), mark: '-'},
				namedSeries{name: "util%", values: o.tl.series("ps_cpu_util_pct"), mark: '*'})
		}
		for _, e := range o.events {
			fmt.Fprintf(w, "%s adaptation: %s\n", o.label, e)
		}
		if err := writeCSV(p, "timeline_"+o.label, o.tl.header(), o.tl.rows); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "\nrequest type changes light->heavy at t=%v\n", driftAt)
	fmt.Fprintf(w, "%-10s %12s %16s %10s %12s\n", "case", "p99[ms]", "goodput[req/s]", "replicas", "final conns")
	fmt.Fprintf(w, "%-10s %12.0f %16.0f %10d %12d\n", "HPA", hpaOnly.p99.Seconds()*1000, hpaOnly.goodput, hpaOnly.replicas, hpaOnly.conns)
	fmt.Fprintf(w, "%-10s %12.0f %16.0f %10d %12d\n", "Sora", sora.p99.Seconds()*1000, sora.goodput, sora.replicas, sora.conns)
	fmt.Fprintf(w, "(paper: the static allocation bottlenecks after the drift; Sora\n")
	fmt.Fprintf(w, " re-estimates and reallocates ~30 connections per replica — compare final conns)\n")
	return nil
}
