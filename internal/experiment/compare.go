package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/core"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// strategy identifies one scaling-management configuration in the
// comparative experiments.
type strategy int

const (
	// stratFIRM is the hardware-only FIRM vertical scaler (no soft
	// resource adaptation).
	stratFIRM strategy = iota + 1
	// stratFIRMSora is FIRM + Sora's SCG-driven concurrency adapter.
	stratFIRMSora
	// stratConScale is Kubernetes-VPA hardware scaling + the SCT
	// (throughput) concurrency adapter.
	stratConScale
	// stratVPASora is Kubernetes-VPA hardware scaling + SCG.
	stratVPASora
)

// String names the strategy for output.
func (s strategy) String() string {
	switch s {
	case stratFIRM:
		return "FIRM"
	case stratFIRMSora:
		return "Sora(FIRM)"
	case stratConScale:
		return "ConScale"
	case stratVPASora:
		return "Sora(VPA)"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// cartRunConfig parameterizes one trace-driven Cart run.
type cartRunConfig struct {
	strategy  strategy
	trace     workload.Trace
	peakUsers int
	duration  time.Duration
	sla       time.Duration // end-to-end SLO driving FIRM and SCG
	seed      uint64
	// initThreads is the starting Cart thread pool (the paper
	// pre-profiles the 2-core optimum before each run; ours is ~10).
	initThreads int
	timelineInt time.Duration // 0 disables timeline recording
	// gpThreshold is the end-to-end goodput threshold for the reported
	// metric; zero selects goodputRTT (400 ms).
	gpThreshold time.Duration
}

// cartRunResult carries everything the comparative tables/figures need.
type cartRunResult struct {
	timeline *timeline
	events   []core.AdaptationEvent

	p95, p99 time.Duration
	goodput  float64 // against the 400ms RTT of Table 2
	thru     float64
}

// goodputRTT is the end-to-end goodput threshold of Table 2/Figures
// 10-12 ("Goodput (RTT=400ms)").
const goodputRTT = scenario.SLA

// vpa is the Kubernetes-VPA hardware scaler of the VPA strategies.
var vpa = scenario.VPA{Service: topology.Cart, MinCores: 2, MaxCores: 6}

// runCartStrategy executes one 12-minute (scaled) trace-driven run of the
// Cart scenario under the given strategy and returns tail latency,
// goodput and the recorded timeline.
func runCartStrategy(p Params, rc cartRunConfig) (*cartRunResult, error) {
	dur := p.scale(rc.duration)
	if rc.gpThreshold <= 0 {
		rc.gpThreshold = goodputRTT
	}
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = rc.initThreads
	s := scenario.SockShopCart(cfg, rc.sla)
	s.Seed = rc.seed
	s.Target = workload.TraceUsers(rc.trace, dur, rc.peakUsers)
	s.Duration = dur
	s.Model.Config.Window = 60 * time.Second
	switch rc.strategy {
	case stratFIRM:
		s.Model = nil
	case stratConScale:
		s.Model.SCT = true
		s.Scaler = vpa
	case stratVPASora:
		s.Scaler = vpa
	}
	r, err := p.observe(s).Build()
	if err != nil {
		return nil, err
	}
	ref := s.Refs[0]
	res := &cartRunResult{}

	// Timeline: response time (mean per tick), goodput, CPU util and
	// limit, running threads — the four panes of Figures 10-11.
	if rc.timelineInt > 0 {
		cartSvc, err := r.C.Service(topology.Cart)
		if err != nil {
			return nil, err
		}
		tl := newTimeline(r.K, rc.timelineInt)
		tl.meanRT("rt_ms", r.E2E)
		tl.goodput("goodput_rps", r.E2E, rc.gpThreshold)
		tl.utilPct("cart_cpu_util_pct", cartSvc)
		tl.column("cart_cpu_limit_pct", func() float64 { return cartSvc.TotalCores() * 100 })
		tl.poolSize("threads_limit", r.C, ref)
		tl.poolInUse("threads_running", r.C, ref)
		r.Attach(tl)
		res.timeline = tl
	}
	execute(r)

	warm := sim.Time(10 * time.Second)
	end := sim.Time(dur)
	if r.Ctl != nil {
		res.events = r.Ctl.Events()
	}
	if p95, err := r.E2E.Percentile(95, warm, end); err == nil {
		res.p95 = p95
	}
	if p99, err := r.E2E.Percentile(99, warm, end); err == nil {
		res.p99 = p99
	}
	res.goodput = r.E2E.GoodputRate(warm, end, rc.gpThreshold)
	res.thru = r.E2E.ThroughputRate(warm, end)
	return res, nil
}

// runCartStrategies executes one independent trace-driven run per
// strategy on the worker pool, with every run deriving from the same base
// config. Results are in strategy-argument order.
func runCartStrategies(p Params, base cartRunConfig, strategies ...strategy) ([]*cartRunResult, error) {
	grp := p.Telemetry.Group("strategies")
	return parMap(p, len(strategies), func(i int) (*cartRunResult, error) {
		rc := base
		rc.strategy = strategies[i]
		res, err := runCartStrategy(p.unitParams(grp.Unit(i, sanitize(strategies[i].String()))), rc)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", strategies[i], err)
		}
		return res, nil
	})
}

// printCartTimeline renders the figure's panes as ASCII charts plus the
// adaptation event log.
func printCartTimeline(p Params, w io.Writer, label string, res *cartRunResult) error {
	if res.timeline == nil {
		return nil
	}
	if !p.Quiet {
		plotASCII(w, label+" — response time [ms] & goodput [req/s]", 96, 10,
			namedSeries{name: "rt_ms", values: res.timeline.series("rt_ms"), mark: '*'},
			namedSeries{name: "goodput_rps", values: res.timeline.series("goodput_rps"), mark: 'o'},
		)
		plotASCII(w, label+" — cart CPU util vs limit [% of core]", 96, 8,
			namedSeries{name: "util", values: res.timeline.series("cart_cpu_util_pct"), mark: '*'},
			namedSeries{name: "limit", values: res.timeline.series("cart_cpu_limit_pct"), mark: '-'},
		)
		plotASCII(w, label+" — cart threads (pool limit vs running)", 96, 8,
			namedSeries{name: "limit", values: res.timeline.series("threads_limit"), mark: '-'},
			namedSeries{name: "running", values: res.timeline.series("threads_running"), mark: '*'},
		)
	}
	if len(res.events) > 0 {
		fmt.Fprintf(w, "%s adaptation events:\n", label)
		for _, e := range res.events {
			fmt.Fprintf(w, "  %s\n", e)
		}
	}
	return writeCSV(p, "timeline_"+sanitize(label), res.timeline.header(), res.timeline.rows)
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
