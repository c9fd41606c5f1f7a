package profile

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"sora/internal/metrics"
	"sora/internal/telemetry"
	"sora/internal/trace"
)

// Histogram shape for per-phase charge distributions: 5 ms bins over
// [0, 300 ms) plus an explicit overflow bin, matching the resolution of
// the paper's Figure 4 response-time histograms.
const (
	histBinWidth = 5 * time.Millisecond
	histBins     = 60
)

// svcAgg accumulates one service's blame totals. All fields are integer
// sums, so accumulation commutes: adding traces in any order yields the
// same state.
type svcAgg struct {
	total [NumPhases]time.Duration // blame across all traces
	slow  [NumPhases]time.Duration // blame on traces over the SLO
	spans uint64                   // critical-path visits
	hist  [NumPhases]*metrics.Histogram
}

func newSvcAgg() *svcAgg {
	a := &svcAgg{}
	for i := range a.hist {
		h, err := metrics.NewHistogram(histBinWidth, histBins)
		if err != nil {
			panic(err) // static shape, cannot fail
		}
		a.hist[i] = h
	}
	return a
}

// Aggregator folds per-trace blame into per-(service, phase) profiles.
//
// It is safe for concurrent use, and — because every accumulator is an
// integer sum or counter and rendering sorts its output — the final
// profile is byte-identical no matter how traces from parallel
// simulation runs interleave. One Aggregator may therefore be shared
// across every unit of a parallel experiment without breaking the
// serial/parallel artifact-equivalence guarantee.
type Aggregator struct {
	mu             sync.Mutex
	slo            time.Duration
	traces         uint64
	violations     uint64
	droppedSpans   uint64
	failedSpans    uint64
	degradedSpans  uint64
	abandonedSpans uint64
	sumRT          time.Duration
	sumExcess      time.Duration
	svcs           map[string]*svcAgg
	folded         map[string]time.Duration
}

// NewAggregator returns an empty aggregator. A positive slo enables the
// SLO-violation breakdown; zero disables it.
func NewAggregator(slo time.Duration) *Aggregator {
	return &Aggregator{
		slo:    slo,
		svcs:   make(map[string]*svcAgg),
		folded: make(map[string]time.Duration),
	}
}

// Add folds one completed trace into the profile. Nil-receiver safe, so
// a disabled profiler costs callers only a pointer test.
func (a *Aggregator) Add(t *trace.Trace) {
	if a == nil || t == nil || t.Root == nil {
		return
	}
	path := t.CriticalPath()
	if len(path) == 0 {
		return
	}
	rt := spanWall(t.Root)
	slow := a.slo > 0 && rt > a.slo

	a.mu.Lock()
	defer a.mu.Unlock()
	a.traces++
	a.sumRT += rt
	if slow {
		a.violations++
		a.sumExcess += rt - a.slo
	}
	stack := foldedFrame(t.Type)
	for i, s := range path {
		ph := SpanPhases(s)
		charges := [NumPhases]time.Duration{
			ph.Queue, ph.CPU, ph.Contend, ph.ConnWait, ph.Blocked, ph.Retry, ph.Breaker,
		}
		if i+1 < len(path) {
			charges[PhaseBlocked] -= spanWall(path[i+1])
			if charges[PhaseBlocked] < 0 {
				charges[PhaseBlocked] = 0
			}
		}
		svc, ok := a.svcs[s.Service]
		if !ok {
			svc = newSvcAgg()
			a.svcs[s.Service] = svc
		}
		svc.spans++
		stack = stack + ";" + foldedFrame(s.Service)
		for p, d := range charges {
			if d == 0 {
				continue
			}
			svc.total[p] += d
			if slow {
				svc.slow[p] += d
			}
			svc.hist[p].Observe(d)
			a.folded[stack+";"+phaseNames[p]] += d
		}
	}
	t.Root.Walk(func(s *trace.Span) {
		if s.Dropped {
			a.droppedSpans++
		}
		if s.Failed {
			a.failedSpans++
		}
		if s.Degraded {
			a.degradedSpans++
		}
		if s.Abandoned {
			a.abandonedSpans++
		}
	})
}

// AddAll folds a batch of traces (e.g. an imported archive).
func (a *Aggregator) AddAll(traces []*trace.Trace) {
	for _, t := range traces {
		a.Add(t)
	}
}

// foldedFrame sanitizes a name for use as one folded-stack frame:
// flamegraph tooling splits frames on ';' and the value on the last
// space.
func foldedFrame(name string) string {
	if name == "" {
		return "(none)"
	}
	clean := []byte(name)
	changed := false
	for i, c := range clean {
		if c == ';' || c == ' ' || c == '\n' || c == '\t' {
			clean[i] = '_'
			changed = true
		}
	}
	if !changed {
		return name
	}
	return string(clean)
}

// ServiceProfile is one service's aggregated blame.
type ServiceProfile struct {
	Service string
	Spans   uint64                   // critical-path visits
	Total   [NumPhases]time.Duration // blame across all traces
	Slow    [NumPhases]time.Duration // blame on traces over the SLO
}

// TotalBlame sums the service's blame across phases.
func (sp ServiceProfile) TotalBlame() time.Duration {
	var sum time.Duration
	for _, d := range sp.Total {
		sum += d
	}
	return sum
}

// SlowBlame sums the service's over-SLO blame across phases.
func (sp ServiceProfile) SlowBlame() time.Duration {
	var sum time.Duration
	for _, d := range sp.Slow {
		sum += d
	}
	return sum
}

// FoldedLine is one folded-stack sample: a semicolon-separated frame
// stack and the total time attributed to it.
type FoldedLine struct {
	Stack string
	Dur   time.Duration
}

// Profile is a deterministic point-in-time snapshot of an Aggregator:
// services ordered by descending total blame (ties by name), folded
// stacks in lexicographic order.
type Profile struct {
	SLO            time.Duration
	Traces         uint64
	Violations     uint64
	DroppedSpans   uint64
	FailedSpans    uint64
	DegradedSpans  uint64
	AbandonedSpans uint64
	SumRT          time.Duration
	SumExcess      time.Duration
	Services       []ServiceProfile
	Folded         []FoldedLine
}

// Snapshot renders the aggregator's current state. Nil-receiver safe
// (returns an empty profile).
func (a *Aggregator) Snapshot() *Profile {
	if a == nil {
		return &Profile{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	p := &Profile{
		SLO:            a.slo,
		Traces:         a.traces,
		Violations:     a.violations,
		DroppedSpans:   a.droppedSpans,
		FailedSpans:    a.failedSpans,
		DegradedSpans:  a.degradedSpans,
		AbandonedSpans: a.abandonedSpans,
		SumRT:          a.sumRT,
		SumExcess:      a.sumExcess,
	}
	for name, svc := range a.svcs {
		p.Services = append(p.Services, ServiceProfile{
			Service: name, Spans: svc.spans, Total: svc.total, Slow: svc.slow,
		})
	}
	sortServices(p.Services)
	for stack, d := range a.folded {
		p.Folded = append(p.Folded, FoldedLine{Stack: stack, Dur: d})
	}
	sortFolded(p.Folded)
	return p
}

// sortServices orders by descending total blame, ties by name.
func sortServices(svcs []ServiceProfile) {
	sort.Slice(svcs, func(i, j int) bool {
		bi, bj := svcs[i].TotalBlame(), svcs[j].TotalBlame()
		if bi != bj {
			return bi > bj
		}
		return svcs[i].Service < svcs[j].Service
	})
}

// sortFolded orders folded stacks lexicographically.
func sortFolded(lines []FoldedLine) {
	sort.Slice(lines, func(i, j int) bool { return lines[i].Stack < lines[j].Stack })
}

// TotalBlame sums all charges across services and phases — equal to
// SumRT when every added trace satisfied the blame invariant.
func (p *Profile) TotalBlame() time.Duration {
	var sum time.Duration
	for _, sp := range p.Services {
		sum += sp.TotalBlame()
	}
	return sum
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct renders part/whole as a percentage, 0 when whole is 0.
func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// WriteTable renders the human-readable blame tables: overall
// attribution (mean ms per request and share of total response time)
// and, when an SLO is set, the violation breakdown ("for traces above
// the SLO, X% of their latency is queue wait at service Y").
func (p *Profile) WriteTable(w io.Writer) error {
	if p.Traces == 0 && len(p.Services) == 0 {
		_, err := fmt.Fprintf(w, "latency attribution: no traces profiled\n")
		return err
	}
	title := "critical-path blame (share of total response time; mean ms/request):"
	if p.Traces == 0 {
		// Reconstructed from folded stacks: per-trace context is gone.
		if _, err := fmt.Fprintf(w, "latency attribution — reconstructed from folded stacks\n"); err != nil {
			return err
		}
		title = "critical-path blame (share of total; total ms):"
	} else {
		meanRT := p.SumRT / time.Duration(p.Traces)
		if _, err := fmt.Fprintf(w, "latency attribution — %d traces, mean RT %.3fms\n", p.Traces, ms(meanRT)); err != nil {
			return err
		}
	}
	if p.DroppedSpans > 0 || p.FailedSpans > 0 || p.DegradedSpans > 0 || p.AbandonedSpans > 0 {
		if _, err := fmt.Fprintf(w, "markers: %d dropped visits, %d failed subtrees, %d degraded responses, %d abandoned calls\n",
			p.DroppedSpans, p.FailedSpans, p.DegradedSpans, p.AbandonedSpans); err != nil {
			return err
		}
	}
	total := p.TotalBlame()
	if err := p.writeBlameRows(w, title,
		total, p.Traces, func(sp ServiceProfile) [NumPhases]time.Duration { return sp.Total }); err != nil {
		return err
	}
	if p.SLO <= 0 {
		return nil
	}
	if p.Violations == 0 {
		_, err := fmt.Fprintf(w, "\nSLO %v: no violations in %d traces\n", p.SLO, p.Traces)
		return err
	}
	if _, err := fmt.Fprintf(w, "\nSLO %v: %d/%d traces over (%.1f%%), total excess %.3fms\n",
		p.SLO, p.Violations, p.Traces, 100*float64(p.Violations)/float64(p.Traces), ms(p.SumExcess)); err != nil {
		return err
	}
	var slowTotal time.Duration
	for _, sp := range p.Services {
		slowTotal += sp.SlowBlame()
	}
	return p.writeBlameRows(w, "blame on over-SLO traces (share of their response time; mean ms/violating trace):",
		slowTotal, p.Violations, func(sp ServiceProfile) [NumPhases]time.Duration { return sp.Slow })
}

// writeBlameRows renders one service × phase table. whole scales the
// share column; n divides the per-phase means (0 prints raw totals).
func (p *Profile) writeBlameRows(w io.Writer, title string, whole time.Duration, n uint64,
	sel func(ServiceProfile) [NumPhases]time.Duration) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-22s %6s %7s", "service", "share", "visits"); err != nil {
		return err
	}
	for _, name := range phaseNames {
		if _, err := fmt.Fprintf(w, " %10s", name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	div := float64(n)
	if n == 0 {
		div = 1
	}
	for _, sp := range p.Services {
		phases := sel(sp)
		var svcTotal time.Duration
		for _, d := range phases {
			svcTotal += d
		}
		if svcTotal == 0 && whole > 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-22s %5.1f%% %7d", sp.Service, pct(svcTotal, whole), sp.Spans); err != nil {
			return err
		}
		for _, d := range phases {
			if _, err := fmt.Fprintf(w, " %10.3f", ms(d)/div); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// FlushTelemetry publishes the aggregated per-(service, phase) blame —
// totals and charge histograms — as counters on the given recorder, in
// Prometheus histogram convention (_total / _bucket{le=...} / _count /
// _sum, milliseconds). Deterministic: services in sorted order, phases
// in canonical order. No-op when either side is nil.
func (a *Aggregator) FlushTelemetry(tel *telemetry.Recorder) {
	if a == nil || tel == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tel.AddCounter("sora_profile_traces_total", float64(a.traces))
	tel.AddCounter("sora_profile_slo_violations_total", float64(a.violations))
	if a.slo > 0 {
		tel.SetGauge("sora_profile_slo_ms", ms(a.slo))
	}
	names := make([]string, 0, len(a.svcs))
	for name := range a.svcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		svc := a.svcs[name]
		for p := 0; p < NumPhases; p++ {
			h := svc.hist[p]
			if h.Total() == 0 {
				continue
			}
			labels := `{service="` + name + `",phase="` + phaseNames[p] + `"}`
			tel.AddCounter("sora_phase_ms_total"+labels, ms(svc.total[p]))
			cum := 0
			for i, c := range h.Bins() {
				cum += c
				le := strconv.FormatInt(int64((time.Duration(i+1)*histBinWidth)/time.Millisecond), 10)
				tel.AddCounter(`sora_phase_ms_bucket{service="`+name+`",phase="`+phaseNames[p]+`",le="`+le+`"}`, float64(cum))
			}
			tel.AddCounter(`sora_phase_ms_bucket{service="`+name+`",phase="`+phaseNames[p]+`",le="+Inf"}`, float64(h.Total()))
			tel.AddCounter("sora_phase_ms_count"+labels, float64(h.Total()))
			tel.AddCounter("sora_phase_ms_sum"+labels, ms(svc.total[p]))
		}
	}
}
