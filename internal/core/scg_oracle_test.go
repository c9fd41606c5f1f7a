package core

// The reference implementation the window scan must reproduce exactly:
// the SCG decision's phase 1, phase 2 and behind-pool passes as they
// were before they shared one scan, each walking the window on its own.
// The bodies are kept verbatim (receivers turned into a first argument,
// calls into each other renamed); TestWindowScanMatchesOracle and
// FuzzWindowScan compare the scan against them.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sora/internal/knee"
	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/trace"
)

// oracleCriticalService is CriticalService before the window scan.
//
// CriticalService identifies the critical service over the trailing
// window (phase 1 of the SCG workflow): services are screened by CPU
// utilization, then ranked by the Pearson correlation of their per-trace
// processing time with the end-to-end response time; the highest
// correlated candidate wins. If no service passes the utilization screen
// the correlation ranking alone decides, mirroring the paper's
// observation that the two steps agree most of the time.
func oracleCriticalService(m *SCGModel, now sim.Time) (string, error) {
	since := now - m.cfg.Window
	traces := m.c.Warehouse().Window(since, now)
	if len(traces) < 2 {
		return "", fmt.Errorf("core: only %d traces in window, need >= 2", len(traces))
	}

	// Assemble aligned per-trace samples: end-to-end RT and per-service
	// processing time (0 when a trace does not visit a service).
	type svcSamples struct {
		pt      []float64
		visited int
	}
	perSvc := make(map[string]*svcSamples)
	rts := make([]float64, 0, len(traces))
	for ti, tr := range traces {
		rts = append(rts, float64(tr.ResponseTime())/float64(time.Millisecond))
		tr.Tree().Walk(func(s *trace.Span) {
			ss, ok := perSvc[s.Service]
			if !ok {
				ss = &svcSamples{pt: make([]float64, len(traces))}
				perSvc[s.Service] = ss
			}
			ss.pt[ti] += float64(s.ProcessingTime()) / float64(time.Millisecond)
			ss.visited++
		})
		_ = ti
	}

	type candidate struct {
		name string
		pcc  float64
		util float64
	}
	var candidates []candidate
	for name, ss := range perSvc {
		if ss.visited < 2 {
			continue
		}
		pcc, err := stats.Pearson(ss.pt, rts)
		if err != nil {
			continue // constant processing time: carries no signal
		}
		util := m.mon.MeanUtil(name, since, now)
		candidates = append(candidates, candidate{name: name, pcc: pcc, util: util})
	}
	// perSvc is a map, so the collection order above is nondeterministic;
	// sort by name so the strict-> argmax below breaks PCC ties toward
	// the lexicographically smallest service on every run.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].name < candidates[j].name })
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

// oraclePropagateDeadline is PropagateDeadline before the window scan.
//
// PropagateDeadline computes the response-time threshold of the given
// service (phase 2): RTT_s = SLA - Σ_{k upstream of s} PT_k, averaged
// over the traces in the window whose critical path passes through s
// (Eq. 3 of the paper). The result is floored at MinThreshold.
func oraclePropagateDeadline(m *SCGModel, now sim.Time, service string) (time.Duration, error) {
	since := now - m.cfg.Window
	traces := m.c.Warehouse().Window(since, now)
	var sum time.Duration
	n := 0
	for _, tr := range traces {
		upstream, ok := tr.UpstreamProcessing(service)
		if !ok {
			continue
		}
		sum += upstream
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("core: service %q never on a critical path in the window", service)
	}
	threshold := m.cfg.SLA - sum/time.Duration(n)
	if threshold < minThreshold {
		threshold = minThreshold
	}
	return threshold, nil
}

// oracleRecommend is SCGModel.Recommend before the window scan.
//
// Recommend runs the full SCG pipeline for the managed resource whose
// measured service is the current critical service. If none of the
// managed resources corresponds to the critical service, the resource
// whose measured service has the highest CPU utilization is adapted
// instead (some critical services, e.g. a database, are only controllable
// through an upstream pool).
func oracleRecommend(m *SCGModel, now sim.Time, managed []ManagedResource) (Recommendation, error) {
	if len(managed) == 0 {
		return Recommendation{}, fmt.Errorf("core: no managed resources")
	}
	critical, err := oracleCriticalService(m, now)
	if err != nil {
		return Recommendation{}, err
	}
	res := m.pickResource(critical, managed, now)
	threshold, err := oraclePropagateDeadline(m, now, res.MeasuredService())
	if err != nil {
		// The measured service may sit off the critical path this window
		// (e.g. the knob's callee while the caller is critical): fall
		// back to the critical service's own threshold.
		threshold, err = oraclePropagateDeadline(m, now, critical)
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
		BehindUtil:         oracleBehindUtil(m, now, res.MeasuredService()),
	}, nil
}

// oracleBehindUtil is behindUtil before the window scan.
//
// behindUtil returns the highest mean utilization among the measured
// service and the downstream services its spans called within the window.
func oracleBehindUtil(m *SCGModel, now sim.Time, measured string) float64 {
	since := now - m.cfg.Window
	best := m.mon.MeanUtil(measured, since, now)
	children := make(map[string]bool)
	for _, tr := range m.c.Warehouse().Window(since, now) {
		tr.Tree().Walk(func(s *trace.Span) {
			if s.Service != measured {
				return
			}
			for _, c := range s.Children {
				children[c.Service] = true
			}
		})
	}
	for child := range children {
		if u := m.mon.MeanUtil(child, since, now); u > best {
			best = u
		}
	}
	return best
}

// oracleSCTRecommend is SCTModel.Recommend before the window scan.
//
// Recommend runs the full SCT pipeline. The recommendation's Threshold is
// zero: throughput needs no deadline.
func oracleSCTRecommend(m *SCTModel, now sim.Time, managed []ManagedResource) (Recommendation, error) {
	if len(managed) == 0 {
		return Recommendation{}, fmt.Errorf("core: no managed resources")
	}
	critical, err := oracleCriticalService(m.scg, now)
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
		BehindUtil:         oracleBehindUtil(m.scg, now, res.MeasuredService()),
	}, nil
}

// oracleStats are the per-service statistics the oracle passes derive
// from a window, for comparing against a windowScan directly.
type oracleStats struct {
	rts      []float64
	pt       map[string][]float64
	visits   map[string]int
	upSum    map[string]time.Duration
	upN      map[string]int
	children map[string]map[string]bool
}

// oracleWindowStats gathers oracleStats the way the oracle passes do:
// one closure Walk per trace for the processing-time vectors (as
// oracleCriticalService), Trace.UpstreamProcessing per trace and service
// for the deadline sums (as oraclePropagateDeadline), and a second Walk
// for the caller→callee sets (as oracleBehindUtil).
func oracleWindowStats(traces []*trace.Trace) oracleStats {
	o := oracleStats{
		pt:       make(map[string][]float64),
		visits:   make(map[string]int),
		upSum:    make(map[string]time.Duration),
		upN:      make(map[string]int),
		children: make(map[string]map[string]bool),
	}
	for ti, tr := range traces {
		o.rts = append(o.rts, float64(tr.ResponseTime())/float64(time.Millisecond))
		tr.Tree().Walk(func(s *trace.Span) {
			if o.pt[s.Service] == nil {
				o.pt[s.Service] = make([]float64, len(traces))
			}
			o.pt[s.Service][ti] += float64(s.ProcessingTime()) / float64(time.Millisecond)
			o.visits[s.Service]++
		})
	}
	for name := range o.visits {
		for _, tr := range traces {
			if upstream, ok := tr.UpstreamProcessing(name); ok {
				o.upSum[name] += upstream
				o.upN[name]++
			}
		}
	}
	for _, tr := range traces {
		tr.Tree().Walk(func(s *trace.Span) {
			for _, c := range s.Children {
				if o.children[s.Service] == nil {
					o.children[s.Service] = make(map[string]bool)
				}
				o.children[s.Service][c.Service] = true
			}
		})
	}
	return o
}
