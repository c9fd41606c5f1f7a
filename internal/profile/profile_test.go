package profile

import (
	"testing"
	"time"

	"sora/internal/trace"
)

func dms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestPhaseNamesRoundTrip(t *testing.T) {
	for i := 0; i < NumPhases; i++ {
		ph := Phase(i)
		got, ok := PhaseByName(ph.String())
		if !ok || got != ph {
			t.Errorf("PhaseByName(%q) = %v, %v", ph.String(), got, ok)
		}
	}
	if _, ok := PhaseByName("nope"); ok {
		t.Error("PhaseByName accepted unknown name")
	}
	if got := Phase(200).String(); got != "unknown" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestSpanPhasesConsistentSpan(t *testing.T) {
	// 2ms queue, 8ms blocked, 6ms on-CPU (4ms ideal + 2ms contention),
	// 4ms connection wait: 20ms wall total.
	s := &trace.Span{
		Arrival: 0, Start: dms(2), End: dms(20),
		Blocked: dms(8), CPU: dms(6), Demand: dms(4),
	}
	p := SpanPhases(s)
	want := Phases{Queue: dms(2), CPU: dms(4), Contend: dms(2), ConnWait: dms(4), Blocked: dms(8)}
	if p != want {
		t.Errorf("SpanPhases = %+v, want %+v", p, want)
	}
	if got := phaseSum(p); got != dms(20) {
		t.Errorf("phases sum to %v, want 20ms", got)
	}
	for i := 0; i < NumPhases; i++ {
		if p.Get(Phase(i)) != want.Get(Phase(i)) {
			t.Errorf("Get(%v) = %v, want %v", Phase(i), p.Get(Phase(i)), want.Get(Phase(i)))
		}
	}
}

func TestSpanPhasesExactSumUnderSkew(t *testing.T) {
	cases := []struct {
		name string
		s    trace.Span
	}{
		{"consistent", trace.Span{Start: dms(1), End: dms(10), Blocked: dms(4), CPU: dms(3), Demand: dms(2)}},
		{"blocked exceeds wall", trace.Span{Start: dms(1), End: dms(10), Blocked: dms(50), CPU: dms(3), Demand: dms(1)}},
		{"cpu exceeds processing", trace.Span{Start: dms(1), End: dms(10), Blocked: dms(4), CPU: dms(50), Demand: dms(1)}},
		{"demand exceeds cpu", trace.Span{Start: dms(1), End: dms(10), Blocked: dms(4), CPU: dms(3), Demand: dms(50)}},
		{"start after end", trace.Span{Start: dms(20), End: dms(10)}},
		{"zero-width drop", trace.Span{Start: dms(5), End: dms(5), Dropped: true}},
		{"negative blocked", trace.Span{Start: dms(1), End: dms(10), Blocked: -dms(3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			p := SpanPhases(&s)
			if got, want := phaseSum(p), spanWall(&s); got != want {
				t.Errorf("phases sum to %v, span wall is %v", got, want)
			}
			for i := 0; i < NumPhases; i++ {
				if p.Get(Phase(i)) < 0 {
					t.Errorf("phase %v negative: %v", Phase(i), p.Get(Phase(i)))
				}
			}
		})
	}
}

// chain builds root -> mid -> leaf with the blocked windows covering each
// on-path child's wall time, as the simulator records them.
func chainedTrace() *trace.Trace {
	leaf := &trace.Span{Service: "cart-db", Depth: 2,
		Arrival: dms(4), Start: dms(5), End: dms(14),
		CPU: dms(9), Demand: dms(7)}
	mid := &trace.Span{Service: "cart", Depth: 1,
		Arrival: dms(2), Start: dms(3), End: dms(17),
		Blocked: dms(11), CPU: dms(2), Demand: dms(2),
		Children: []*trace.Span{leaf}}
	root := &trace.Span{Service: "front-end", Depth: 0,
		Arrival: 0, Start: 0, End: dms(20),
		Blocked: dms(16), CPU: dms(4), Demand: dms(3),
		Children: []*trace.Span{mid}}
	return &trace.Trace{ID: 1, Type: "getCart", Root: root}
}

func sumCharges(charges []Charge) time.Duration {
	var sum time.Duration
	for _, c := range charges {
		sum += c.Dur
	}
	return sum
}

func TestBlameSumsToResponseTime(t *testing.T) {
	tr := chainedTrace()
	charges := Blame(tr)
	if got, want := sumCharges(charges), tr.ResponseTime(); got != want {
		t.Fatalf("blame sums to %v, response time is %v", got, want)
	}
	// Root blocked 16ms, on-path child wall is 15ms: residue 1ms charged
	// to front-end's blocked phase.
	var feBlocked time.Duration
	for _, c := range charges {
		if c.Service == "front-end" && c.Phase == PhaseBlocked {
			feBlocked = c.Dur
		}
		if c.Dur <= 0 {
			t.Errorf("zero/negative charge emitted: %+v", c)
		}
	}
	if feBlocked != dms(1) {
		t.Errorf("front-end blocked residue = %v, want 1ms", feBlocked)
	}
}

func TestBlameSingleSpan(t *testing.T) {
	tr := &trace.Trace{ID: 2, Type: "ping", Root: &trace.Span{
		Service: "front-end", Start: dms(1), End: dms(3),
		CPU: dms(2), Demand: dms(2)}}
	charges := Blame(tr)
	if got, want := sumCharges(charges), tr.ResponseTime(); got != want {
		t.Errorf("blame sums to %v, response time is %v", got, want)
	}
}

func TestBlameNeverLosesTime(t *testing.T) {
	// Malformed by construction: the on-path child's wall time (12ms)
	// exceeds the parent's recorded blocked window (2ms). The parent's
	// blocked charge clamps at zero; total blame can only exceed the
	// response time, never fall short.
	child := &trace.Span{Service: "cart", Depth: 1,
		Arrival: dms(1), Start: dms(1), End: dms(13), CPU: dms(12), Demand: dms(12)}
	root := &trace.Span{Service: "front-end",
		Arrival: 0, Start: 0, End: dms(14),
		Blocked: dms(2), CPU: dms(12), Demand: dms(12),
		Children: []*trace.Span{child}}
	tr := &trace.Trace{ID: 3, Type: "x", Root: root}
	if got, want := sumCharges(Blame(tr)), tr.ResponseTime(); got < want {
		t.Errorf("blame sums to %v, below response time %v", got, want)
	}
}

func TestBlameEmptyTrace(t *testing.T) {
	if got := Blame(&trace.Trace{}); got != nil {
		t.Errorf("rootless trace blamed: %v", got)
	}
}

func TestFoldedFrameSanitizes(t *testing.T) {
	if got := foldedFrame("a b;c\td"); got != "a_b_c_d" {
		t.Errorf("foldedFrame = %q", got)
	}
	if got := foldedFrame(""); got != "(none)" {
		t.Errorf("foldedFrame(\"\") = %q", got)
	}
	if got := foldedFrame("clean-name"); got != "clean-name" {
		t.Errorf("foldedFrame = %q", got)
	}
}

// phaseSum adds up every phase of p.
func phaseSum(p Phases) time.Duration {
	var sum time.Duration
	for i := 0; i < NumPhases; i++ {
		sum += p.Get(Phase(i))
	}
	return sum
}
