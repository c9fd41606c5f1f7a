package cluster

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/trace"
)

// attrInt extracts an integer attribute from an event (0 when absent).
func attrInt(ev telemetry.Event, key string) int64 {
	for _, a := range ev.Attrs {
		if a.Key == key {
			n, _ := strconv.ParseInt(a.Value(), 10, 64)
			return n
		}
	}
	return 0
}

// attrStr extracts a string attribute from an event ("" when absent).
func attrStr(ev telemetry.Event, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			s, err := strconv.Unquote(a.Value())
			if err != nil {
				return a.Value()
			}
			return s
		}
	}
	return ""
}

// policyCluster builds a two-tier cluster with the given policy on the
// frontend->backend edge.
func policyCluster(t *testing.T, k *sim.Kernel, p CallPolicy) *Cluster {
	t.Helper()
	c := mustCluster(t, k, twoTier(0, 0))
	if err := c.SetCallPolicy("frontend", "backend", p); err != nil {
		t.Fatal(err)
	}
	return c
}

// The breaker parameters every policy edge runs with, spelled out so
// the tests pin them: opening on the 5th consecutive failure and a 5 s
// cooldown are part of every chaos run's trajectory.
const (
	wantThreshold = 5
	wantCooldown  = 5 * time.Second
)

// TestBreakerStateMachine drives the breaker through its transitions as
// a table of (outcome, probe) steps with explicit virtual-time advances.
func TestBreakerStateMachine(t *testing.T) {
	type step struct {
		advance time.Duration // move the clock before the step
		// exactly one of record/allow per step:
		record  bool
		isProbe bool
		success bool

		allow     bool // call breakerAllow and check the results
		wantAllow bool
		wantProbe bool

		want breakerState
	}
	// fails is n consecutive non-probe failures, all but the last
	// leaving the breaker closed and the last leaving it in last.
	fails := func(n int, last breakerState) []step {
		steps := make([]step, n)
		for i := range steps {
			steps[i] = step{record: true, want: breakerClosed}
		}
		steps[n-1].want = last
		return steps
	}
	trip := fails(wantThreshold, breakerOpen)
	cases := []struct {
		name      string
		faultOnly bool // the edge has an injected fault and no policy
		steps     []step
	}{
		{
			name: "closed stays closed under threshold and success resets",
			steps: slices.Concat(
				fails(wantThreshold-1, breakerClosed),
				[]step{{record: true, success: true, want: breakerClosed}}, // resets consecFails
				fails(wantThreshold-1, breakerClosed),
			),
		},
		{
			name: "opens at threshold and rejects until cooldown",
			steps: slices.Concat(trip, []step{
				{allow: true, wantAllow: false, want: breakerOpen},
				{advance: wantCooldown - time.Millisecond, allow: true, wantAllow: false, want: breakerOpen},
				{advance: time.Millisecond, allow: true, wantAllow: true, wantProbe: true, want: breakerHalfOpen},
			}),
		},
		{
			name: "half-open admits one probe; probe failure reopens",
			steps: slices.Concat(trip, []step{
				{advance: wantCooldown, allow: true, wantAllow: true, wantProbe: true, want: breakerHalfOpen},
				{allow: true, wantAllow: false, want: breakerHalfOpen}, // second call while probing
				{record: true, isProbe: true, success: false, want: breakerOpen},
				// The new open window starts at the probe failure.
				{advance: wantCooldown - time.Millisecond, allow: true, wantAllow: false, want: breakerOpen},
				{advance: time.Millisecond, allow: true, wantAllow: true, wantProbe: true, want: breakerHalfOpen},
			}),
		},
		{
			name: "one successful probe closes",
			steps: slices.Concat(trip, []step{
				{advance: wantCooldown, allow: true, wantAllow: true, wantProbe: true, want: breakerHalfOpen},
				{record: true, isProbe: true, success: true, want: breakerClosed},
				{allow: true, wantAllow: true, wantProbe: false, want: breakerClosed},
			},
				// Closing reset the failure count: a full run is needed
				// to open again.
				fails(wantThreshold, breakerOpen),
			),
		},
		{
			name: "stale non-probe results are ignored while half-open",
			steps: slices.Concat(trip, []step{
				{advance: wantCooldown, allow: true, wantAllow: true, wantProbe: true, want: breakerHalfOpen},
				// A result from an attempt sent before the breaker opened
				// arrives now; it must not decide the half-open outcome.
				{record: true, isProbe: false, success: false, want: breakerHalfOpen},
				{record: true, isProbe: true, success: true, want: breakerClosed},
			}),
		},
		{
			name:      "fault-only edge never opens",
			faultOnly: true,
			steps: slices.Concat(fails(3*wantThreshold, breakerClosed), []step{
				{allow: true, wantAllow: true, wantProbe: false, want: breakerClosed},
			}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			var c *Cluster
			if tc.faultOnly {
				c = mustCluster(t, k, twoTier(0, 0))
				if err := c.SetEdgeFault("frontend", "backend", EdgeFault{ExtraDelay: time.Millisecond}); err != nil {
					t.Fatal(err)
				}
			} else {
				c = policyCluster(t, k, CallPolicy{MaxAttempts: 1})
			}
			es := c.edge("frontend", "backend")
			if es == nil {
				t.Fatal("edge state missing after configuring the edge")
			}
			for i, s := range tc.steps {
				if s.advance > 0 {
					k.RunUntil(k.Now() + sim.Time(s.advance))
				}
				switch {
				case s.record:
					es.breakerRecord(c, s.isProbe, s.success)
				case s.allow:
					allowed, isProbe := es.breakerAllow(c)
					if allowed != s.wantAllow || isProbe != s.wantProbe {
						t.Fatalf("step %d: breakerAllow = (%v, %v), want (%v, %v)",
							i, allowed, isProbe, s.wantAllow, s.wantProbe)
					}
				}
				if es.state != s.want {
					t.Fatalf("step %d: state = %v, want %v", i, es.state, s.want)
				}
			}
		})
	}
}

// TestBackoffDoublesToCapWithinJitter pins the retry schedule of every
// policy edge: the waits after attempts 1..7 are 5, 10, 20, 40, 80, 100
// and 100 ms, each shortened by less than 20% jitter, and the jitter
// spans that band.
func TestBackoffDoublesToCapWithinJitter(t *testing.T) {
	k := sim.NewKernel(13)
	c := policyCluster(t, k, CallPolicy{MaxAttempts: 8})
	ms := time.Millisecond
	want := []time.Duration{5 * ms, 10 * ms, 20 * ms, 40 * ms, 80 * ms, 100 * ms, 100 * ms}
	maxFrac := 0.0
	for draw := 0; draw < 50; draw++ {
		for i, nominal := range want {
			d := c.backoffFor(i + 1)
			if d > nominal || d < nominal-nominal/5 {
				t.Fatalf("draw %d: backoff after attempt %d = %v, want in [%v, %v]",
					draw, i+1, d, nominal-nominal/5, nominal)
			}
			maxFrac = max(maxFrac, float64(nominal-d)/float64(nominal))
		}
	}
	if maxFrac < 0.18 {
		t.Errorf("largest jitter = %.3f of the nominal wait over 350 draws, want near 0.2", maxFrac)
	}
}

// TestBreakerFastFailsAndRecovers exercises the breaker end to end: a
// crashed backend opens it, open calls fast-fail without touching the
// backend, and after restore+cooldown a probe closes it again.
func TestBreakerFastFailsAndRecovers(t *testing.T) {
	k := sim.NewKernel(2)
	c := policyCluster(t, k, CallPolicy{MaxAttempts: 1})
	be, _ := c.Service("backend")
	be.Instances()[0].Crash()

	const n = wantThreshold + 3
	for i := 0; i < n; i++ {
		k.Schedule(time.Duration(i)*10*time.Millisecond, c.SubmitMix)
	}
	k.Run()
	if got := c.edge("frontend", "backend").state.String(); got != "open" {
		t.Fatalf("breaker = %s, want open", got)
	}
	if c.Failed() != n || c.Completed() != 0 {
		t.Fatalf("failed=%d completed=%d, want %d/0", c.Failed(), c.Completed(), n)
	}
	// Five refusals tripped the breaker; the remaining three calls never
	// left the frontend.
	if c.BreakerRejections() != 3 {
		t.Errorf("breaker rejections = %d, want 3", c.BreakerRejections())
	}
	if c.Refused() != wantThreshold {
		t.Errorf("refused = %d, want %d", c.Refused(), wantThreshold)
	}

	be.Instances()[0].Restore()
	k.RunUntil(k.Now() + sim.Time(wantCooldown)) // cooldown elapses
	c.SubmitMix()
	k.Run()
	if c.Completed() != 1 {
		t.Fatalf("post-recovery completed = %d, want 1", c.Completed())
	}
	if got := c.edge("frontend", "backend").state.String(); got != "closed" {
		t.Errorf("breaker = %s, want closed after successful probe", got)
	}
}

// TestRetryRecoversFromTransientCrash: the backend is down when the
// request arrives and comes back during the retry backoff; the request
// must complete with the wait charged to RetryWait.
func TestRetryRecoversFromTransientCrash(t *testing.T) {
	k := sim.NewKernel(3)
	c := policyCluster(t, k, CallPolicy{MaxAttempts: 5})
	var done *trace.Trace
	c.OnComplete(func(tr *trace.Trace) { done = tr })
	be, _ := c.Service("backend")
	be.Instances()[0].Crash()
	k.Schedule(30*time.Millisecond, func() { be.Instances()[0].Restore() })
	c.SubmitMix()
	k.Run()
	if done == nil {
		t.Fatalf("request did not complete (failed=%d)", c.Failed())
	}
	root := done.Tree()
	if root.Failed || root.Degraded {
		t.Errorf("root failed=%v degraded=%v, want clean completion", root.Failed, root.Degraded)
	}
	if c.Retries() == 0 {
		t.Error("no retries recorded")
	}
	if root.RetryWait == 0 {
		t.Error("root span charged no RetryWait")
	}
	// Retry waits are excluded from processing time.
	if pt := root.ProcessingTime(); pt > 5*time.Millisecond {
		t.Errorf("root PT = %v, want ~2ms (retry wait must be excluded)", pt)
	}
}

// TestTimeoutExhaustionFailsEssentialCall: one attempt with a timeout
// shorter than the backend's service time fails the request.
func TestTimeoutExhaustionFailsEssentialCall(t *testing.T) {
	k := sim.NewKernel(4)
	c := policyCluster(t, k, CallPolicy{Timeout: 5 * time.Millisecond, MaxAttempts: 1})
	c.SubmitMix()
	k.Run()
	if c.Failed() != 1 || c.Completed() != 0 {
		t.Fatalf("failed=%d completed=%d, want 1/0", c.Failed(), c.Completed())
	}
	if c.TimedOut() != 1 {
		t.Errorf("timed out = %d, want 1", c.TimedOut())
	}
}

// TestOptionalCallDegrades: an optional callee that times out produces a
// degraded completion, with the timed-out child marked Abandoned and
// excluded from the critical path.
func TestOptionalCallDegrades(t *testing.T) {
	k := sim.NewKernel(5)
	c := policyCluster(t, k, CallPolicy{Timeout: 5 * time.Millisecond, MaxAttempts: 1, Optional: true})
	var done *trace.Trace
	c.OnComplete(func(tr *trace.Trace) { done = tr })
	c.SubmitMix()
	k.Run()
	if c.Completed() != 1 || c.Failed() != 0 {
		t.Fatalf("completed=%d failed=%d, want 1/0", c.Completed(), c.Failed())
	}
	if c.Degraded() != 1 {
		t.Errorf("degraded = %d, want 1", c.Degraded())
	}
	if done == nil || !done.Tree().Degraded {
		t.Fatal("completion trace not marked degraded")
	}
	if root := done.Tree(); len(root.Children) != 1 || !root.Children[0].Abandoned {
		t.Error("timed-out child span not marked Abandoned")
	}
	for _, svc := range done.CriticalPathServices() {
		if svc == "backend" {
			t.Error("abandoned child on the critical path")
		}
	}
	// The degraded completion is badput in the span logs.
	good, bad := c.Completions().Counts(0, k.Now()+1, time.Hour)
	if good != 0 || bad != 1 {
		t.Errorf("goodput counts = (%d, %d), want (0, 1): degraded is never good", good, bad)
	}
}

// TestLossyEdgeTimesOutAndRetries: with LossProb 1 every attempt is
// lost; the retry budget is spent and the request fails.
func TestLossyEdgeTimesOutAndRetries(t *testing.T) {
	k := sim.NewKernel(6)
	// The timeout comfortably covers the backend's 8ms of work, so only
	// lost calls ever hit it.
	c := policyCluster(t, k, CallPolicy{Timeout: 20 * time.Millisecond, MaxAttempts: 2})
	if err := c.SetEdgeFault("frontend", "backend", EdgeFault{LossProb: 1}); err != nil {
		t.Fatal(err)
	}
	c.SubmitMix()
	k.Run()
	if c.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", c.Failed())
	}
	if c.LostCalls() != 2 || c.TimedOut() != 2 {
		t.Errorf("lost=%d timedOut=%d, want 2/2", c.LostCalls(), c.TimedOut())
	}
	if c.Retries() != 1 {
		t.Errorf("retries = %d, want 1", c.Retries())
	}
	// Clearing the fault restores normal service.
	if err := c.SetEdgeFault("frontend", "backend", EdgeFault{}); err != nil {
		t.Fatal(err)
	}
	c.SubmitMix()
	k.Run()
	if c.Completed() != 1 {
		t.Errorf("completed = %d after clearing fault, want 1", c.Completed())
	}
}

// TestLossWithoutTimeoutIsConnectionReset: an edge with loss but no
// policy must not deadlock the caller — the loss surfaces as a one-hop
// connection reset and the request fails.
func TestLossWithoutTimeoutIsConnectionReset(t *testing.T) {
	k := sim.NewKernel(7)
	c := mustCluster(t, k, twoTier(0, 0))
	if err := c.SetEdgeFault("frontend", "backend", EdgeFault{LossProb: 1}); err != nil {
		t.Fatal(err)
	}
	c.SubmitMix()
	k.Run() // must terminate
	if c.Failed() != 1 || c.Completed() != 0 {
		t.Fatalf("failed=%d completed=%d, want 1/0", c.Failed(), c.Completed())
	}
	if c.LostCalls() != 1 {
		t.Errorf("lost = %d, want 1", c.LostCalls())
	}
}

// TestEdgeExtraDelayInflatesLatency: 10ms of injected one-way delay adds
// ~20ms to the 10ms baseline round trip.
func TestEdgeExtraDelayInflatesLatency(t *testing.T) {
	k := sim.NewKernel(8)
	c := mustCluster(t, k, twoTier(0, 0))
	if err := c.SetEdgeFault("frontend", "backend", EdgeFault{ExtraDelay: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var done *trace.Trace
	c.OnComplete(func(tr *trace.Trace) { done = tr })
	c.SubmitMix()
	k.Run()
	if done == nil {
		t.Fatal("request did not complete")
	}
	if rt := done.ResponseTime(); rt < 29*time.Millisecond || rt > 32*time.Millisecond {
		t.Errorf("response time = %v, want ~30ms (10ms baseline + 2x10ms injected)", rt)
	}
}

// TestCrashFailsInFlightWork: crashing a pod mid-service fails the work
// it was running (the response is lost with the process).
func TestCrashFailsInFlightWork(t *testing.T) {
	k := sim.NewKernel(9)
	c := mustCluster(t, k, twoTier(0, 0))
	be, _ := c.Service("backend")
	c.SubmitMix()
	k.Schedule(4*time.Millisecond, func() { be.Instances()[0].Crash() }) // mid-way through 8ms of work
	k.Run()
	if c.Failed() != 1 || c.Completed() != 0 {
		t.Fatalf("failed=%d completed=%d, want 1/0", c.Failed(), c.Completed())
	}
	// A post-restore request is untouched by the stale epoch.
	be.Instances()[0].Restore()
	c.SubmitMix()
	k.Run()
	if c.Completed() != 1 {
		t.Errorf("completed = %d after restore, want 1", c.Completed())
	}
}

// TestSetDegradeScalesServiceTime: degradation scales the pod's
// effective cores, so a factor of 0.25 leaves the 2-core backend with
// half a core and doubles its 8ms single-threaded task.
func TestSetDegradeScalesServiceTime(t *testing.T) {
	k := sim.NewKernel(10)
	c := mustCluster(t, k, twoTier(0, 0))
	be, _ := c.Service("backend")
	be.Instances()[0].SetDegrade(0.25)
	var done *trace.Trace
	c.OnComplete(func(tr *trace.Trace) { done = tr })
	c.SubmitMix()
	k.Run()
	if done == nil {
		t.Fatal("request did not complete")
	}
	if rt := done.ResponseTime(); rt < 17*time.Millisecond || rt > 19*time.Millisecond {
		t.Errorf("response time = %v, want ~18ms (backend work doubled)", rt)
	}
	be.Instances()[0].SetDegrade(0)
	c.SubmitMix()
	k.Run()
	if rt := done.ResponseTime(); rt < 9*time.Millisecond || rt > 11*time.Millisecond {
		t.Errorf("response time = %v after clearing degrade, want ~10ms", rt)
	}
}

// TestRetryAndBreakerEventsPublished: the throttled resilience.retry
// window summaries and resilience.breaker transitions reach the
// recorder with the edge attributes.
func TestRetryAndBreakerEventsPublished(t *testing.T) {
	k := sim.NewKernel(12)
	app := twoTier(0, 0)
	rec := telemetry.NewRecorder("test")
	c, err := New(k, app, Options{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetCallPolicy("frontend", "backend", CallPolicy{MaxAttempts: 2}); err != nil {
		t.Fatal(err)
	}
	be, _ := c.Service("backend")
	be.Instances()[0].Crash()
	for i := 0; i < 3; i++ {
		k.Schedule(time.Duration(i)*10*time.Millisecond, c.SubmitMix)
	}
	k.Run()
	c.FlushTelemetry()
	var sawRetry, sawBreaker bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case "resilience.retry":
			sawRetry = true
		case "resilience.breaker":
			sawBreaker = true
			if caller := attrStr(ev, "caller"); caller != "frontend" {
				t.Errorf("breaker event caller = %q, want frontend", caller)
			}
			if to := attrStr(ev, "to"); to != "open" {
				t.Errorf("breaker event to = %q, want open", to)
			}
		}
	}
	if !sawRetry {
		t.Error("no resilience.retry event published")
	}
	if !sawBreaker {
		t.Error("no resilience.breaker event published")
	}
}

// TestRetryWindowOpensAtFirstRetry pins the resilience.retry throttle:
// an edge's first window opens at its first retry, not when its policy
// was installed, so a retry 2 s after installation publishes nothing;
// the retry a window later publishes the count of both, and the flush
// skips the then-empty window.
func TestRetryWindowOpensAtFirstRetry(t *testing.T) {
	k := sim.NewKernel(14)
	rec := telemetry.NewRecorder("test")
	c, err := New(k, twoTier(0, 0), Options{Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetCallPolicy("frontend", "backend", CallPolicy{MaxAttempts: 2}); err != nil {
		t.Fatal(err)
	}
	be, _ := c.Service("backend")
	be.Instances()[0].Crash()
	k.At(sim.Time(2*time.Second), c.SubmitMix)
	k.At(sim.Time(3500*time.Millisecond), c.SubmitMix)
	k.Run()
	c.FlushTelemetry()
	var got []telemetry.Event
	for _, ev := range rec.Events() {
		if ev.Kind == "resilience.retry" {
			got = append(got, ev)
		}
	}
	if c.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", c.Retries())
	}
	if len(got) != 1 {
		t.Fatalf("%d resilience.retry events, want 1", len(got))
	}
	if at := time.Duration(got[0].At); at < 3500*time.Millisecond || at > 3600*time.Millisecond {
		t.Errorf("retry event at %v, want at the second retry (~3.5s)", at)
	}
	if n := attrInt(got[0], "count"); n != 2 {
		t.Errorf("retry event count = %d, want 2", n)
	}
}
