package core

import (
	"fmt"
	"math"
	"time"

	"sora/internal/cluster"
	"sora/internal/knee"
	"sora/internal/metrics"
	"sora/internal/sim"
)

// SCTModel is the Scatter-Concurrency-Throughput model of ConScale (Liu
// et al., "Mitigating Large Response Time Fluctuations through Fast
// Concurrency Adapting in Clouds", IPDPS 2020) — the latency-agnostic
// baseline the paper compares SCG against. It shares the SCG pipeline's
// localization and estimation machinery but correlates concurrency with
// raw throughput: no deadline enters the model, which is exactly why it
// over-allocates under tight SLOs (section 5.2, Figure 11).
type SCTModel struct {
	scg *SCGModel
}

// NewSCT returns the ConScale baseline model. The SLA in cfg is only used
// for bookkeeping (SCT ignores latency); pass the experiment's SLO so
// reports stay comparable.
func NewSCT(c *cluster.Cluster, mon *Monitor, cfg SCGConfig) (*SCTModel, error) {
	scg, err := NewSCG(c, mon, cfg)
	if err != nil {
		return nil, err
	}
	return &SCTModel{scg: scg}, nil
}

// CollectPairs builds <Q_n, TP_n> samples: concurrency against raw
// throughput, with no response-time filtering.
func (m *SCTModel) CollectPairs(now sim.Time, ref cluster.ResourceRef, measured string) (qs, tps []float64, err error) {
	conc, err := m.scg.mon.Concurrency(ref)
	if err != nil {
		return nil, nil, err
	}
	svc, err := m.scg.c.Service(measured)
	if err != nil {
		return nil, nil, err
	}
	since := now - m.scg.cfg.Window
	qs, tps = metrics.ConcurrencyThroughputPairs(conc, svc.SpanLog(), since, now, DefaultSampleInterval)
	return qs, tps, nil
}

// Estimate finds the knee of the concurrency-throughput curve — the
// classic Kneedle knee where throughput saturates (ConScale's published
// model, with the estimator's default options), not the goodput plateau
// end SCG uses.
func (m *SCTModel) Estimate(qs, tps []float64) (knee.Result, error) {
	if len(qs) < minPairs {
		return knee.Result{}, fmt.Errorf("core: %d pairs, need >= %d", len(qs), minPairs)
	}
	return knee.FindAuto(qs, tps, knee.AutoOptions{})
}

// Recommend runs the full SCT pipeline. The recommendation's Threshold is
// zero: throughput needs no deadline.
func (m *SCTModel) Recommend(now sim.Time, managed []ManagedResource) (Recommendation, error) {
	if len(managed) == 0 {
		return Recommendation{}, fmt.Errorf("core: no managed resources")
	}
	w := m.scg.scan(now)
	critical, err := m.scg.criticalService(w, now)
	if err != nil {
		return Recommendation{}, err
	}
	res := m.scg.pickResource(critical, managed, now)
	qs, tps, err := m.CollectPairs(now, res.Ref, res.MeasuredService())
	if err != nil {
		return Recommendation{}, err
	}
	maxWin, maxRet := m.scg.observedConcurrency(now, res.Ref)
	kr, err := m.Estimate(qs, tps)
	if err != nil {
		// Same degenerate-scatter escape as SCG: a pinned pool yields no
		// curve; recommend the observed edge as a fallback so the
		// adapter's exploration rule can widen the range.
		if len(qs) < minPairs || maxWin <= 0 {
			return Recommendation{}, err
		}
		kr = knee.Result{X: maxWin, Fallback: true}
	}
	// ConScale sizes pools liberally: the SCT main-sequence knee marks
	// where throughput saturates, and the framework allocates headroom
	// above it so throughput is never concurrency-limited (the behaviour
	// Figure 11 shows as ~40 threads where SCG picks ~30).
	opt := res.Clamp(int(math.Round(kr.X * sctHeadroom)))
	return Recommendation{
		CriticalService:    critical,
		Resource:           res.Ref,
		OptimalConcurrency: opt,
		Knee:               kr,
		Pairs:              len(qs),
		MaxQWindow:         maxWin,
		MaxQRetention:      maxRet,
		GoodFrac:           1, // latency-agnostic: deadlines never trigger growth
		BehindUtil:         m.scg.behindUtil(w, now, res.MeasuredService()),
	}, nil
}

// sctHeadroom is ConScale's allocation margin above the throughput knee.
const sctHeadroom = 1.33

// Model is the interface both concurrency models expose to the Sora
// controller; implementations must be safe to call once per control
// period.
type Model interface {
	// Recommend produces an optimal-concurrency recommendation for one
	// of the managed resources based on the trailing metrics window.
	Recommend(now sim.Time, managed []ManagedResource) (Recommendation, error)
}

// Verify interface compliance.
var (
	_ Model = (*SCGModel)(nil)
	_ Model = (*SCTModel)(nil)
)

// threshold formatting helper shared by logs.
func fmtThreshold(t time.Duration) string {
	if t <= 0 {
		return "n/a"
	}
	return t.String()
}
