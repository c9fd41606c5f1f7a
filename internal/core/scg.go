package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"sora/internal/cluster"
	"sora/internal/knee"
	"sora/internal/metrics"
	"sora/internal/sim"
	"sora/internal/stats"
)

// SCGConfig configures the Scatter-Concurrency-Goodput model. The rest
// of its settings are fixed: pairs are sampled every
// DefaultSampleInterval, utilizationFloor screens critical-service
// candidates, minPairs gates an estimate and minThreshold floors the
// propagated deadline.
type SCGConfig struct {
	// SLA is the end-to-end response-time objective deadlines are
	// propagated from (required).
	SLA time.Duration
	// Window is the metrics-collection window; zero selects
	// DefaultWindow.
	Window time.Duration
	// PlateauTolerance is how far below peak goodput the plateau may sag
	// before the optimal concurrency is declared (phase 4); zero selects
	// 0.08. Tighter values bias the estimate toward the peak itself.
	PlateauTolerance float64
}

func (cfg *SCGConfig) fillDefaults() {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.PlateauTolerance <= 0 {
		cfg.PlateauTolerance = defaultPlateauTolerance
	}
}

const (
	// utilizationFloor screens critical-service candidates: services
	// below this mean CPU utilization are not considered bottlenecks.
	utilizationFloor = 0.5
	// minPairs is the minimum number of <Q, GP> samples required before
	// an estimate is attempted.
	minPairs = 50
	// minThreshold floors the propagated per-service deadline so that a
	// slow upstream cannot drive it to zero.
	minThreshold = time.Millisecond
)

// SCGModel is the paper's Scatter-Concurrency-Goodput model: it estimates
// the optimal concurrency setting of the critical microservice from the
// correlation of its fine-grained goodput (against a propagated deadline)
// and request-processing concurrency.
type SCGModel struct {
	cfg    SCGConfig
	c      *cluster.Cluster
	mon    *Monitor
	blocks sealedScans
}

// NewSCG returns an SCG model reading traces from the cluster's warehouse
// and concurrency series from the monitor. It declares the warehouse's
// scan records (Cluster.RetainScans) and the span logs of its monitor's
// measured services (Cluster.RecordSpans) with a reach of its window,
// which fails once traces have completed unretained, or have been
// evicted from a narrower warehouse or pruned from a narrower span log
// than the window: build the model before the run.
func NewSCG(c *cluster.Cluster, mon *Monitor, cfg SCGConfig) (*SCGModel, error) {
	if c == nil || mon == nil {
		return nil, fmt.Errorf("core: SCG needs a cluster and a monitor")
	}
	if cfg.SLA <= 0 {
		return nil, fmt.Errorf("core: SCG needs a positive SLA, got %v", cfg.SLA)
	}
	cfg.fillDefaults()
	if err := c.RetainScans(cfg.Window); err != nil {
		return nil, fmt.Errorf("core: SCG: %w", err)
	}
	for _, cs := range mon.conc {
		if err := c.RecordSpans(ManagedResource{Ref: cs.ref}.MeasuredService(), cfg.Window); err != nil {
			return nil, fmt.Errorf("core: SCG: %w", err)
		}
	}
	return &SCGModel{cfg: cfg, c: c, mon: mon, blocks: sealedScans{shift: sealedBlockShift}}, nil
}

// Config returns the model's effective configuration (defaults filled).
func (m *SCGModel) Config() SCGConfig { return m.cfg }

// scan gathers the trailing window's traces into one windowScan: each
// decision reads the critical service, the deadline and the behind-pool
// utilization from it instead of walking the window once per question.
// The traces a previous decision's window already covered are merged
// from their sealed blocks, not walked again. The scan is valid until
// the model's next one.
func (m *SCGModel) scan(now sim.Time) *windowScan {
	wh := m.c.Warehouse()
	traces := wh.Window(now-m.cfg.Window, now)
	first := traces.First()
	return m.blocks.scan(traces, wh.Unsettled(first, first+uint64(traces.Len())), m.c.TraceNames())
}

// CriticalService identifies the critical service over the trailing
// window (phase 1 of the SCG workflow): services are screened by CPU
// utilization, then ranked by the Pearson correlation of their per-trace
// processing time with the end-to-end response time; the highest
// correlated candidate wins. If no service passes the utilization screen
// the correlation ranking alone decides, mirroring the paper's
// observation that the two steps agree most of the time.
func (m *SCGModel) CriticalService(now sim.Time) (string, error) {
	return m.criticalService(m.scan(now), now)
}

// criticalService is CriticalService on a built scan.
func (m *SCGModel) criticalService(w *windowScan, now sim.Time) (string, error) {
	if len(w.rts) < 2 {
		return "", fmt.Errorf("core: only %d traces in window, need >= 2", len(w.rts))
	}
	type candidate struct {
		name string
		pcc  float64
		util float64
	}
	since := now - m.cfg.Window
	candidates := make([]candidate, 0, len(w.svc))
	for i := range w.svc {
		ss := &w.svc[i]
		if ss.visits < 2 {
			continue
		}
		pcc, err := stats.Pearson(ss.pt, w.rts)
		if err != nil {
			continue // constant processing time: carries no signal
		}
		name := w.names[i]
		util := m.mon.MeanUtil(name, since, now)
		candidates = append(candidates, candidate{name: name, pcc: pcc, util: util})
	}
	// Sort by name so the strict-> argmax below breaks PCC ties toward
	// the lexicographically smallest service, whatever the index order.
	slices.SortFunc(candidates, func(a, b candidate) int { return strings.Compare(a.name, b.name) })
	if len(candidates) == 0 {
		return "", fmt.Errorf("core: no service produced a usable correlation over the window")
	}

	best := ""
	bestPCC := math.Inf(-1)
	// First pass: only services past the utilization screen.
	for _, c := range candidates {
		if c.util >= utilizationFloor && c.pcc > bestPCC {
			best, bestPCC = c.name, c.pcc
		}
	}
	if best != "" {
		return best, nil
	}
	// Fallback: correlation alone.
	for _, c := range candidates {
		if c.pcc > bestPCC {
			best, bestPCC = c.name, c.pcc
		}
	}
	return best, nil
}

// PropagateDeadline computes the response-time threshold of the given
// service (phase 2): RTT_s = SLA - Σ_{k upstream of s} PT_k, averaged
// over the traces in the window whose critical path passes through s
// (Eq. 3 of the paper). The result is floored at minThreshold.
func (m *SCGModel) PropagateDeadline(now sim.Time, service string) (time.Duration, error) {
	return m.propagateDeadline(m.scan(now), service)
}

// propagateDeadline is PropagateDeadline on a built scan.
func (m *SCGModel) propagateDeadline(w *windowScan, service string) (time.Duration, error) {
	i := w.find(service)
	if i < 0 || w.svc[i].upN == 0 {
		return 0, fmt.Errorf("core: service %q never on a critical path in the window", service)
	}
	threshold := m.cfg.SLA - w.svc[i].upSum/time.Duration(w.svc[i].upN)
	if threshold < minThreshold {
		threshold = minThreshold
	}
	return threshold, nil
}

// CollectPairs builds the <Q_n, GP_n> scatter samples for a soft resource
// (phase 3): the tracked concurrency series is aligned at DefaultSampleInterval
// buckets with the goodput of the measured service's span completions
// against the propagated threshold.
func (m *SCGModel) CollectPairs(now sim.Time, ref cluster.ResourceRef, measured string, threshold time.Duration) (qs, gps []float64, err error) {
	conc, err := m.mon.Concurrency(ref)
	if err != nil {
		return nil, nil, err
	}
	svc, err := m.c.Service(measured)
	if err != nil {
		return nil, nil, err
	}
	since := now - m.cfg.Window
	qs, gps = metrics.ConcurrencyGoodputPairs(conc, svc.SpanLog(), since, now, DefaultSampleInterval, threshold)
	return qs, gps, nil
}

// Estimate runs phase 4 on collected pairs. Samples are binned per
// integer concurrency level (sparse bins dropped), the binned means are
// smoothed with a short moving average, and the optimal concurrency is
// the right edge of the goodput plateau — the largest concurrency still
// sustaining near-peak goodput before the decline that deadline misses
// and multithreading overhead cause.
//
// On clean rising-then-falling main-sequence curves this coincides with
// the Kneedle knee at the curve maximum; on the plateau-shaped curves
// closed-loop demand produces it avoids two failure modes of raw
// polynomial-Kneedle estimation: mistaking demand saturation for the
// resource optimum, and Runge oscillation of a high-degree fit at the
// sparsely sampled high-concurrency end.
func (m *SCGModel) Estimate(qs, gps []float64) (knee.Result, error) {
	if len(qs) < minPairs {
		return knee.Result{}, fmt.Errorf("core: %d pairs, need >= %d", len(qs), minPairs)
	}
	return EstimateOptimal(qs, gps, m.cfg.PlateauTolerance)
}

// EstimateOptimal is the standalone form of the SCG estimation phase for
// callers outside a live model (offline analysis, the Table 1 harness):
// bin, smooth, plateau-end. tolerance must be positive (see
// knee.FindPlateauEnd).
func EstimateOptimal(qs, gps []float64, tolerance float64) (knee.Result, error) {
	bx, by, err := binPairs(qs, gps, minBinSamples)
	if err != nil {
		return knee.Result{}, err
	}
	smooth := stats.MovingAverage(by, 3)
	return knee.FindPlateauEnd(bx, smooth, tolerance)
}

// minBinSamples is the minimum sample count for a concurrency bin to
// participate in estimation; sparser bins are statistical noise.
const minBinSamples = 2

// defaultPlateauTolerance is how far below peak goodput the plateau may
// sag before it is considered over.
const defaultPlateauTolerance = 0.08

// binPairs aggregates scatter samples into per-integer-concurrency mean
// goodput, dropping bins with fewer than minCount samples.
func binPairs(qs, gps []float64, minCount int) (bx, by []float64, err error) {
	if len(qs) != len(gps) {
		return nil, nil, fmt.Errorf("core: pair lengths differ: %d vs %d", len(qs), len(gps))
	}
	sums := make(map[int]float64)
	counts := make(map[int]int)
	maxBin := 0
	for i, q := range qs {
		b := int(q + 0.5)
		if b < 0 {
			continue
		}
		sums[b] += gps[i]
		counts[b]++
		if b > maxBin {
			maxBin = b
		}
	}
	for b := 0; b <= maxBin; b++ {
		if counts[b] < minCount {
			continue
		}
		bx = append(bx, float64(b))
		by = append(by, sums[b]/float64(counts[b]))
	}
	if len(bx) < 5 {
		return nil, nil, fmt.Errorf("core: only %d usable concurrency bins", len(bx))
	}
	return bx, by, nil
}

// Recommendation is the output of a full model pipeline run.
type Recommendation struct {
	// CriticalService is the localized critical microservice.
	CriticalService string
	// Resource is the soft-resource knob that controls it.
	Resource cluster.ResourceRef
	// Threshold is the propagated per-service deadline the goodput was
	// measured against (zero for the latency-agnostic SCT baseline).
	Threshold time.Duration
	// OptimalConcurrency is the recommended setting.
	OptimalConcurrency int
	// Knee carries the raw estimator output.
	Knee knee.Result
	// Pairs is the number of scatter samples used.
	Pairs int
	// MaxQWindow is the highest concurrency observed within the model
	// window — the edge of the scatter's x range. A knee at this edge
	// means the curve was truncated by the current allocation or by
	// demand, not confirmed by declining goodput beyond it.
	MaxQWindow float64
	// MaxQRetention is the highest concurrency observed over the
	// monitor's full retained history (several windows), used as a
	// shrink floor so a quiet window cannot collapse the allocation
	// below recently demonstrated demand.
	MaxQRetention float64
	// GoodFrac is the fraction of the measured service's completions
	// within the threshold over the window (1.0 for the latency-agnostic
	// SCT baseline). Low values under a saturated pool signal that the
	// current allocation cannot meet the deadline.
	GoodFrac float64
	// BehindUtil is the utilization of the capacity behind the pool: the
	// maximum mean CPU utilization among the measured service and its
	// direct downstream callees over the window. Near 1.0 it means more
	// concurrency cannot buy more useful work — the pool should not grow
	// (and shrinking reduces multithreading thrash at the bottleneck).
	BehindUtil float64
}

// ManagedResource declares one adaptable soft resource: the knob
// (ResourceRef) and the service whose concurrency/goodput the model
// correlates. For server-side pools the two coincide; for client-side
// connection pools the knob lives at the caller while the measured
// service is the callee (Home-Timeline's pool vs Post Storage's load).
type ManagedResource struct {
	Ref cluster.ResourceRef
	// Min and Max clamp recommendations; zero Max means no upper clamp,
	// Min is floored at 1.
	Min, Max int
}

// MeasuredService returns the service the model observes for this
// resource: the callee of a client-side pool, else the pool's owner.
func (r ManagedResource) MeasuredService() string {
	if r.Ref.Kind == cluster.PoolClientConns {
		return r.Ref.Target
	}
	return r.Ref.Service
}

// Clamp bounds a raw recommendation.
func (r ManagedResource) Clamp(n int) int {
	min := r.Min
	if min < 1 {
		min = 1
	}
	if n < min {
		n = min
	}
	if r.Max > 0 && n > r.Max {
		n = r.Max
	}
	return n
}

// Recommend runs the full SCG pipeline for the managed resource whose
// measured service is the current critical service. If none of the
// managed resources corresponds to the critical service, the resource
// whose measured service has the highest CPU utilization is adapted
// instead (some critical services, e.g. a database, are only controllable
// through an upstream pool).
func (m *SCGModel) Recommend(now sim.Time, managed []ManagedResource) (Recommendation, error) {
	if len(managed) == 0 {
		return Recommendation{}, fmt.Errorf("core: no managed resources")
	}
	w := m.scan(now)
	critical, err := m.criticalService(w, now)
	if err != nil {
		return Recommendation{}, err
	}
	res := m.pickResource(critical, managed, now)
	threshold, err := m.propagateDeadline(w, res.MeasuredService())
	if err != nil {
		// The measured service may sit off the critical path this window
		// (e.g. the knob's callee while the caller is critical): fall
		// back to the critical service's own threshold.
		threshold, err = m.propagateDeadline(w, critical)
		if err != nil {
			return Recommendation{}, err
		}
	}
	qs, gps, err := m.CollectPairs(now, res.Ref, res.MeasuredService(), threshold)
	if err != nil {
		return Recommendation{}, err
	}
	maxWin, maxRet := m.observedConcurrency(now, res.Ref)
	kr, err := m.Estimate(qs, gps)
	if err != nil {
		// Degenerate scatter: a pool pinned at its limit for the whole
		// window produces a single concurrency bin, so no curve exists.
		// That is itself a signal — the paper's "insufficient concurrency
		// blurs the knee" case — so surface a fallback recommendation at
		// the observed edge and let the adapter's exploration rule act,
		// instead of stalling the control loop with an error.
		if len(qs) < minPairs || maxWin <= 0 {
			return Recommendation{}, err
		}
		kr = knee.Result{X: maxWin, Fallback: true}
	}
	opt := res.Clamp(int(math.Round(kr.X)))
	return Recommendation{
		CriticalService:    critical,
		Resource:           res.Ref,
		Threshold:          threshold,
		OptimalConcurrency: opt,
		Knee:               kr,
		Pairs:              len(qs),
		MaxQWindow:         maxWin,
		MaxQRetention:      maxRet,
		GoodFrac:           m.goodFraction(now, res.MeasuredService(), threshold),
		BehindUtil:         m.behindUtil(w, now, res.MeasuredService()),
	}, nil
}

// behindUtil returns the highest mean utilization among the measured
// service and the downstream services its spans called within the
// scanned window.
func (m *SCGModel) behindUtil(w *windowScan, now sim.Time, measured string) float64 {
	since := now - m.cfg.Window
	best := m.mon.MeanUtil(measured, since, now)
	caller := w.find(measured)
	if caller < 0 {
		return best
	}
	for callee, name := range w.names {
		if !w.calledBy(caller, callee) {
			continue
		}
		if u := m.mon.MeanUtil(name, since, now); u > best {
			best = u
		}
	}
	return best
}

// goodFraction returns the share of the measured service's completions
// meeting the threshold over the model window (1.0 when no completions).
// The span log is degradation-aware: visits the resilience layer
// completed with a degraded response are flagged at record time and
// never count as good, so under fault injection the SCG optimizer sees
// degraded service for what it is rather than mistaking fast fallback
// responses for healthy goodput.
func (m *SCGModel) goodFraction(now sim.Time, service string, threshold time.Duration) float64 {
	svc, err := m.c.Service(service)
	if err != nil {
		return 1
	}
	good, bad := svc.SpanLog().Counts(now-m.cfg.Window, now, threshold)
	if good+bad == 0 {
		return 1
	}
	return float64(good) / float64(good+bad)
}

// observedConcurrency returns the highest sampled concurrency of the
// resource over the model window and over the monitor's full retention.
func (m *SCGModel) observedConcurrency(now sim.Time, ref cluster.ResourceRef) (window, retention float64) {
	series, err := m.mon.Concurrency(ref)
	if err != nil {
		return 0, 0
	}
	since := now - m.cfg.Window
	for _, p := range series.Window(0, now) {
		if p.V > retention {
			retention = p.V
		}
		if p.T >= since && p.V > window {
			window = p.V
		}
	}
	return window, retention
}

// pickResource maps the critical service onto a managed resource.
func (m *SCGModel) pickResource(critical string, managed []ManagedResource, now sim.Time) ManagedResource {
	for _, res := range managed {
		if res.MeasuredService() == critical || res.Ref.Service == critical {
			return res
		}
	}
	// No direct match: adapt the managed resource with the most loaded
	// measured service.
	best := managed[0]
	bestUtil := -1.0
	since := now - m.cfg.Window
	for _, res := range managed {
		u := m.mon.MeanUtil(res.MeasuredService(), since, now)
		if u > bestUtil {
			best, bestUtil = res, u
		}
	}
	return best
}
