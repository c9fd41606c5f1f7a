package profile_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/profile"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/trace"
)

// runSockShop drives the Sock Shop app hard enough to exercise queueing,
// PS contention, and connection-pool waits, and returns the completed
// traces.
func runSockShop(t *testing.T, seed uint64, n int) []*trace.Trace {
	t.Helper()
	k := sim.NewKernel(seed)
	c, err := cluster.New(k, topology.SockShop(topology.DefaultSockShop()), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var traces []*trace.Trace
	c.OnComplete(func(tr *trace.Trace) { traces = append(traces, tr) })
	for i := 0; i < n; i++ {
		// Bursty arrivals: four requests per millisecond tick.
		k.Schedule(time.Duration(i/4)*time.Millisecond, c.SubmitMix)
	}
	k.Run()
	if len(traces) == 0 {
		t.Fatal("no traces completed")
	}
	return traces
}

// TestBlameInvariantOnSimulatedTraces is the core guarantee: for every
// trace the simulator produces, the per-(service, phase) charges sum
// exactly — to the nanosecond — to the trace's response time.
func TestBlameInvariantOnSimulatedTraces(t *testing.T) {
	traces := runSockShop(t, 7, 400)
	for _, tr := range traces {
		var sum time.Duration
		for _, c := range profile.Blame(tr) {
			sum += c.Dur
		}
		if sum != tr.ResponseTime() {
			t.Fatalf("trace %d (%s): blame sums to %v, response time %v (diff %v)",
				tr.ID, tr.Type, sum, tr.ResponseTime(), sum-tr.ResponseTime())
		}
		// And every span's five phases tile its wall time exactly.
		tr.Root.Walk(func(s *trace.Span) {
			ph := profile.SpanPhases(s)
			var got time.Duration
			for i := 0; i < profile.NumPhases; i++ {
				got += ph.Get(profile.Phase(i))
			}
			if want := s.Duration(); got != want {
				t.Fatalf("trace %d span %s: phases sum to %v, wall %v", tr.ID, s.Service, got, want)
			}
		})
	}
}

// TestSimulatedPhasesAreConsistent checks the recorded counters satisfy
// the orderings the phase taxonomy assumes (no clamping needed for
// simulator-produced spans): Demand <= CPU <= processing time, and
// Blocked fits inside Start..End.
func TestSimulatedPhasesAreConsistent(t *testing.T) {
	traces := runSockShop(t, 11, 200)
	spans, contended, connWaited := 0, 0, 0
	for _, tr := range traces {
		tr.Root.Walk(func(s *trace.Span) {
			spans++
			if s.Demand > s.CPU {
				t.Fatalf("span %s: demand %v > cpu %v", s.Service, s.Demand, s.CPU)
			}
			if s.CPU > s.ProcessingTime() {
				t.Fatalf("span %s: cpu %v > processing %v", s.Service, s.CPU, s.ProcessingTime())
			}
			if s.Blocked > time.Duration(s.End-s.Start) {
				t.Fatalf("span %s: blocked %v > residence %v", s.Service, s.Blocked, time.Duration(s.End-s.Start))
			}
			ph := profile.SpanPhases(s)
			if ph.Contend > 0 {
				contended++
			}
			if ph.ConnWait > 0 {
				connWaited++
			}
		})
	}
	// The workload is bursty enough that contention must show up
	// somewhere; a workload with zero contention would make the phase
	// tests vacuous.
	if contended == 0 {
		t.Errorf("no span of %d showed PS contention", spans)
	}
	if connWaited == 0 {
		t.Errorf("no span of %d showed connection-slot wait", spans)
	}
}

func renderAll(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if err := profile.WriteFolded(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAggregatorOrderIndependence: the rendered profile must be
// byte-identical whether traces are added serially in order, serially in
// reverse, or concurrently from several goroutines — the property that
// lets parallel experiment units share one Aggregator.
func TestAggregatorOrderIndependence(t *testing.T) {
	traces := runSockShop(t, 23, 300)
	slo := 40 * time.Millisecond

	forward := profile.NewAggregator(slo)
	forward.AddAll(traces)
	want := renderAll(t, forward.Snapshot())

	reverse := profile.NewAggregator(slo)
	for i := len(traces) - 1; i >= 0; i-- {
		reverse.Add(traces[i])
	}
	if got := renderAll(t, reverse.Snapshot()); !bytes.Equal(got, want) {
		t.Error("reverse-order profile differs from forward-order profile")
	}

	concurrent := profile.NewAggregator(slo)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(traces); i += 4 {
				concurrent.Add(traces[i])
			}
		}(w)
	}
	wg.Wait()
	if got := renderAll(t, concurrent.Snapshot()); !bytes.Equal(got, want) {
		t.Error("concurrent profile differs from serial profile")
	}
}

// TestAggregatorMatchesBlame: aggregate totals equal the sum of
// per-trace blame, and total blame equals total response time.
func TestAggregatorMatchesBlame(t *testing.T) {
	traces := runSockShop(t, 31, 250)
	agg := profile.NewAggregator(0)
	agg.AddAll(traces)
	p := agg.Snapshot()
	if p.Traces != uint64(len(traces)) {
		t.Errorf("profile counts %d traces, want %d", p.Traces, len(traces))
	}
	var sumRT time.Duration
	for _, tr := range traces {
		sumRT += tr.ResponseTime()
	}
	if p.SumRT != sumRT {
		t.Errorf("SumRT = %v, want %v", p.SumRT, sumRT)
	}
	if got := p.TotalBlame(); got != sumRT {
		t.Errorf("TotalBlame = %v, want %v (all response time attributed)", got, sumRT)
	}
	// Folded stacks carry the same total (before µs truncation on write).
	var foldedSum time.Duration
	for _, l := range p.Folded {
		foldedSum += l.Dur
	}
	if foldedSum != sumRT {
		t.Errorf("folded stacks sum to %v, want %v", foldedSum, sumRT)
	}
}

func TestSLOViolationBreakdown(t *testing.T) {
	traces := runSockShop(t, 43, 300)
	// Pick an SLO between min and max observed RT so both sides are
	// non-empty regardless of calibration drift.
	minRT, maxRT := traces[0].ResponseTime(), traces[0].ResponseTime()
	for _, tr := range traces {
		if rt := tr.ResponseTime(); rt < minRT {
			minRT = rt
		} else if rt > maxRT {
			maxRT = rt
		}
	}
	slo := (minRT + maxRT) / 2
	agg := profile.NewAggregator(slo)
	agg.AddAll(traces)
	p := agg.Snapshot()
	var wantViolations uint64
	var wantSlowRT time.Duration
	for _, tr := range traces {
		if tr.ResponseTime() > slo {
			wantViolations++
			wantSlowRT += tr.ResponseTime()
		}
	}
	if p.Violations != wantViolations || p.Violations == 0 || p.Violations == p.Traces {
		t.Fatalf("violations = %d (want %d, strictly between 0 and %d)", p.Violations, wantViolations, p.Traces)
	}
	var slowBlame time.Duration
	for _, sp := range p.Services {
		slowBlame += sp.SlowBlame()
		for i := 0; i < profile.NumPhases; i++ {
			if sp.Slow[i] > sp.Total[i] {
				t.Errorf("%s phase %d: slow blame %v exceeds total %v", sp.Service, i, sp.Slow[i], sp.Total[i])
			}
		}
	}
	// Over-SLO blame covers exactly the violating traces' response time.
	if slowBlame != wantSlowRT {
		t.Errorf("slow blame = %v, want %v", slowBlame, wantSlowRT)
	}
	var buf bytes.Buffer
	if err := p.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SLO") || !strings.Contains(out, "traces over") {
		t.Errorf("table missing SLO section:\n%s", out)
	}
}

func TestWriteTableEmptyProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := profile.NewAggregator(0).Snapshot().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no traces") {
		t.Errorf("empty profile table = %q", buf.String())
	}
}

func TestFoldedRoundTrip(t *testing.T) {
	traces := runSockShop(t, 53, 200)
	agg := profile.NewAggregator(0)
	agg.AddAll(traces)
	p := agg.Snapshot()

	var buf bytes.Buffer
	if err := profile.WriteFolded(&buf, p); err != nil {
		t.Fatal(err)
	}
	lines, err := profile.ReadFolded(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no folded lines survived the round trip")
	}
	// Every surviving line matches its original value truncated to µs.
	orig := make(map[string]time.Duration, len(p.Folded))
	for _, l := range p.Folded {
		orig[l.Stack] = l.Dur
	}
	for _, l := range lines {
		want := orig[l.Stack] / time.Microsecond * time.Microsecond
		if l.Dur != want {
			t.Fatalf("stack %q = %v after round trip, want %v", l.Stack, l.Dur, want)
		}
		// Stack shape: type;services...;phase.
		frames := strings.Split(l.Stack, ";")
		if len(frames) < 3 {
			t.Fatalf("stack %q too short", l.Stack)
		}
		if _, ok := profile.PhaseByName(frames[len(frames)-1]); !ok {
			t.Fatalf("stack %q: innermost frame is not a phase", l.Stack)
		}
	}

	// A profile reconstructed from folded stacks names the same services
	// with per-phase totals within the µs truncation error.
	rebuilt, err := profile.ProfileFromFolded(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt.Services) != len(p.Services) {
		t.Fatalf("rebuilt %d services, want %d", len(rebuilt.Services), len(p.Services))
	}
	byName := make(map[string]profile.ServiceProfile)
	for _, sp := range rebuilt.Services {
		byName[sp.Service] = sp
	}
	maxErr := time.Duration(len(p.Folded)) * time.Microsecond
	for _, sp := range p.Services {
		got, ok := byName[sp.Service]
		if !ok {
			t.Fatalf("service %s missing from rebuilt profile", sp.Service)
		}
		for i := 0; i < profile.NumPhases; i++ {
			diff := sp.Total[i] - got.Total[i]
			if diff < 0 || diff > maxErr {
				t.Errorf("%s phase %d: rebuilt %v, want %v (±%v)", sp.Service, i, got.Total[i], sp.Total[i], maxErr)
			}
		}
	}
}

func TestReadFoldedRejectsGarbage(t *testing.T) {
	if _, err := profile.ReadFolded(strings.NewReader("no-value-here\n")); err == nil {
		t.Error("line without value: expected error")
	}
	if _, err := profile.ReadFolded(strings.NewReader("a;b notanumber\n")); err == nil {
		t.Error("non-integer value: expected error")
	}
	if _, err := profile.ProfileFromFolded([]profile.FoldedLine{{Stack: "justone", Dur: time.Millisecond}}); err == nil {
		t.Error("single-frame stack: expected error")
	}
	if _, err := profile.ProfileFromFolded([]profile.FoldedLine{{Stack: "a;b;nophase", Dur: time.Millisecond}}); err == nil {
		t.Error("unknown phase frame: expected error")
	}
}

func TestFlushTelemetry(t *testing.T) {
	traces := runSockShop(t, 61, 200)
	agg := profile.NewAggregator(50 * time.Millisecond)
	agg.AddAll(traces)

	render := func() string {
		rec := telemetry.NewRecorder("profile-test")
		agg.FlushTelemetry(rec)
		var buf bytes.Buffer
		if err := rec.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render()
	for _, want := range []string{
		"sora_profile_traces_total",
		"sora_profile_slo_ms",
		`sora_phase_ms_total{service="front-end",phase="cpu"`,
		`le="+Inf"`,
		"sora_phase_ms_count",
		"sora_phase_ms_sum",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Flushing the same aggregator onto a fresh recorder is deterministic.
	if again := render(); again != out {
		t.Error("FlushTelemetry output not deterministic across renders")
	}
	// Nil sides are no-ops.
	agg.FlushTelemetry(nil)
	var nilAgg *profile.Aggregator
	nilAgg.FlushTelemetry(telemetry.NewRecorder("x"))
	if nilAgg.Snapshot().Traces != 0 {
		t.Error("nil aggregator not inert")
	}
	nilAgg.Add(traces[0])
}
