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

// The unified-controller experiment evaluates the paper's stated future
// work ("A unified controller can potentially be an ideal solution for
// this joint optimization problem", section 4.1): the independent design
// (FIRM scaling hardware, Sora's adapter chasing one control period
// later) against a single loop that moves CPU limit and thread pool
// together.
func init() {
	register(Experiment{
		ID:    "ext-unified",
		Title: "Extension: independent (FIRM+Sora) vs unified joint controller",
		Run:   runUnifiedExt,
	})
}

func runUnifiedExt(p Params, w io.Writer) error {
	dur := p.scale(12 * time.Minute)
	const (
		peakUsers   = 1500
		initThreads = 10
	)

	type outcome struct {
		p95, p99  time.Duration
		goodput   float64
		hwChanges int
		events    int
	}
	measure := func(r *scenario.Rig, hw int, events int) *outcome {
		warm := sim.Time(10 * time.Second)
		end := sim.Time(dur)
		o := &outcome{hwChanges: hw, events: events}
		if p95, err := r.E2E.Percentile(95, warm, end); err == nil {
			o.p95 = p95
		}
		if p99, err := r.E2E.Percentile(99, warm, end); err == nil {
			o.p99 = p99
		}
		o.goodput = r.E2E.GoodputRate(warm, end, goodputRTT)
		return o
	}
	// The Cart scenario under the steep tri-phase trace, as the
	// independent design runs it: FIRM wrapped by Sora's controller.
	cart := func() scenario.Scenario {
		cfg := topology.DefaultSockShop()
		cfg.CartCores = 2
		cfg.CartThreads = initThreads
		s := scenario.SockShopCart(cfg, goodputRTT)
		s.Seed = p.Seed
		s.Target = workload.TraceUsers(workload.SteepTriPhaseTrace(), dur, peakUsers)
		s.Duration = dur
		s.Model.Config.Window = 60 * time.Second
		return s
	}

	runIndependent := func(tel *telemetry.Recorder) (*outcome, error) {
		r, err := simulate(p.unitParams(tel).observe(cart()))
		if err != nil {
			return nil, err
		}
		return measure(r, r.Ctl.HardwareChanges(), len(r.Ctl.Events())), nil
	}

	// Unified: one joint loop over the same model and pool bounds.
	runUnified := func(tel *telemetry.Recorder) (*outcome, error) {
		s := cart()
		m := s.Model
		s.Scaler, s.Model = nil, nil
		r, err := p.unitParams(tel).observe(s).Build()
		if err != nil {
			return nil, err
		}
		scg, err := core.NewSCG(r.C, r.Mon, m.Config)
		if err != nil {
			return nil, err
		}
		uni, err := core.NewUnified(r.C, core.UnifiedConfig{
			Model:   scg,
			Managed: m.Managed,
			Service: topology.Cart,
			Ladder:  []float64{2, 4},
			SLO:     goodputRTT,
			Warmup:  m.Warmup,
		})
		if err != nil {
			return nil, err
		}
		r.Attach(uni)
		execute(r)
		return measure(r, uni.HardwareChanges(), len(uni.Events())), nil
	}

	// Both controller designs simulate independently; run them on the
	// worker pool.
	grp := p.Telemetry.Group("controllers")
	outcomes, err := parMap(p, 2, func(i int) (*outcome, error) {
		if i == 0 {
			return runIndependent(grp.Unit(0, "independent"))
		}
		return runUnified(grp.Unit(1, "unified"))
	})
	if err != nil {
		return err
	}
	ind, unified := outcomes[0], outcomes[1]

	fmt.Fprintf(w, "\nSteep Tri Phase, %v, peak %d users, SLO %v\n", dur, peakUsers, goodputRTT)
	fmt.Fprintf(w, "%-24s %10s %10s %16s %8s %8s\n",
		"controller", "p95[ms]", "p99[ms]", "goodput[req/s]", "hw-ops", "adapts")
	for _, row := range []struct {
		name string
		o    *outcome
	}{
		{"independent (FIRM+Sora)", ind},
		{"unified (joint loop)", unified},
	} {
		fmt.Fprintf(w, "%-24s %10.0f %10.0f %16.0f %8d %8d\n",
			row.name,
			row.o.p95.Seconds()*1000, row.o.p99.Seconds()*1000,
			row.o.goodput, row.o.hwChanges, row.o.events)
	}
	if unified.p99 > 0 && ind.p99 > 0 {
		fmt.Fprintf(w, "\np99 independent/unified: %.2fx  (>1 means the joint loop wins)\n",
			float64(ind.p99)/float64(unified.p99))
	}
	fmt.Fprintf(w, "(the unified loop rescales the pool in the same period as the CPU move,\n")
	fmt.Fprintf(w, " eliminating the window where freshly added cores run with a stale pool;\n")
	fmt.Fprintf(w, " note the naive proportional rescale can also over-commit right at the\n")
	fmt.Fprintf(w, " scale boundary — whether the joint loop wins is workload-dependent, which\n")
	fmt.Fprintf(w, " is presumably why the paper leaves the unified design as future work)\n")
	return nil
}
