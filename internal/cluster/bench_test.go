package cluster

import (
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/trace"
)

// BenchmarkRequestVisit measures the full per-request cost of the visit
// hot path — admission, CPU scheduling, downstream RPC, completion and
// phase recording (Demand/CPU/Blocked on every span). Run with
// -benchmem; the allocs/op figure is the budget the no-profiling path
// must hold.
func BenchmarkRequestVisit(b *testing.B) {
	k := sim.NewKernel(1)
	c, err := New(k, twoTier(8, 8), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SubmitMix()
		k.Run()
	}
}

// steadyAllocsPerRequest returns the steady-state allocation count of one
// request on c. Warm-up requests first grow the internal slices
// (completion log, kernel heap, free lists) that steady state reuses or
// amortizes.
func steadyAllocsPerRequest(k *sim.Kernel, c *Cluster) float64 {
	for i := 0; i < 64; i++ {
		c.SubmitMix()
		k.Run()
	}
	return testing.AllocsPerRun(200, func() {
		c.SubmitMix()
		k.Run()
	})
}

// TestPhaseRecordingAllocFree pins the satellite guarantee that the span
// phase decomposition added for latency attribution costs zero
// allocations when no profiler is attached: recording Demand, on-CPU
// time and drop/failure markers writes plain fields on spans the request
// lifecycle allocates anyway. The budget below is the steady-state
// allocation count of one two-tier request over a direct edge, once with
// no completion log declared and once with the end-to-end log and the
// backend's span log, so both branches of visit.finish and of
// rootCall.done are pinned; if phase recording, a completion log or the
// pooled call path ever starts allocating per request, the count rises
// and this fails.
func TestPhaseRecordingAllocFree(t *testing.T) {
	for _, declared := range []bool{false, true} {
		k := sim.NewKernel(1)
		c, err := New(k, twoTier(8, 8), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if declared {
			if err := c.RecordCompletions(trace.DefaultRetention); err != nil {
				t.Fatal(err)
			}
			if err := c.RecordSpans("backend", trace.DefaultRetention); err != nil {
				t.Fatal(err)
			}
		}
		avg := steadyAllocsPerRequest(k, c)
		// With pooled visits, root and call records, timers, jobs and
		// spans (child lists included), the Trace kept in the root call
		// record, block-allocated completion logs and records copied
		// into recycled chunks, a two-tier request allocates nothing
		// (measured 0). AllocsPerRun truncates the mean, so a log block
		// or record chunk refill every few hundred requests does not
		// show; any per-request, per-visit, per-call, per-timer or
		// per-quantum allocation does.
		if avg != 0 {
			t.Fatalf("steady-state allocations per request (end-to-end and backend span logs declared: %v) = %.1f, want 0 (visit hot path regressed)", declared, avg)
		}
	}
}

// TestPolicyEdgeAllocFree is the policy-edge sibling of
// TestPhaseRecordingAllocFree: the same two-tier request over an edge
// with a timeout, so every call runs through a pooled callState and
// attempt whose deadline timer is armed and then cancelled by the
// answer.
func TestPolicyEdgeAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	c, err := New(k, twoTier(8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetCallPolicy("frontend", "backend", CallPolicy{Timeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	avg := steadyAllocsPerRequest(k, c)
	// Same budget as the direct edge (measured 0): the call and attempt
	// records and the timer all come from free lists.
	if avg != 0 {
		t.Fatalf("steady-state allocations per request = %.1f, want 0 (policy-edge call path regressed)", avg)
	}
}
