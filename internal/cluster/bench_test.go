package cluster

import (
	"testing"
	"time"
	"unsafe"

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
// allocation count of one two-tier request over a direct edge; if phase
// recording or the pooled call path ever starts allocating, the count
// rises and this fails.
func TestPhaseRecordingAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	c, err := New(k, twoTier(8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	avg := steadyAllocsPerRequest(k, c)
	// With pooled visits, root and call records, timers and jobs, the
	// span arena and block-allocated completion logs, one two-tier
	// request allocates only the trace struct and the root span's child
	// list (measured 2). The bound leaves one allocation of slack for
	// amortized slab and block refills while still catching any
	// per-request, per-visit, per-call, per-timer or per-quantum
	// allocation.
	if avg > 3 {
		t.Fatalf("steady-state allocations per request = %.1f, want <= 3 (visit hot path regressed)", avg)
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
	// Same budget as the direct edge (measured 2): the call and attempt
	// records and the timer all come from free lists.
	if avg > 3 {
		t.Fatalf("steady-state allocations per request = %.1f, want <= 3 (policy-edge call path regressed)", avg)
	}
}

// TestSpanSlabFillsWholePages pins the span arena slab at exactly 32 KiB,
// the runtime's largest small-object size: one byte more and every slab
// is rounded up to whole 8 KiB pages (a 136 B span made each 256-span
// slab 40 KiB, 15% of it wasted). A field added to trace.Span has to
// re-think spanChunkSize or the field layout.
func TestSpanSlabFillsWholePages(t *testing.T) {
	if got := unsafe.Sizeof(trace.Span{}) * spanChunkSize; got != 32<<10 {
		t.Fatalf("span slab = %d B (%d B span x %d), want exactly %d B", got, unsafe.Sizeof(trace.Span{}), spanChunkSize, 32<<10)
	}
}
