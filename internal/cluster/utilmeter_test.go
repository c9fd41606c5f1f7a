package cluster

import (
	"math"
	"testing"
	"time"

	"sora/internal/sim"
)

// TestUtilMeterWindows checks that UtilMeter.Next is the delta of the
// service's two cumulative counters across a core change and a
// scale-out, and that a read at the instant of the previous one reports
// no capacity.
func TestUtilMeterWindows(t *testing.T) {
	k := sim.NewKernel(3)
	c := mustCluster(t, k, twoTier(0, 0))
	svc, err := c.Service("backend")
	if err != nil {
		t.Fatal(err)
	}
	m := NewUtilMeter(svc)
	if util, ok := m.Next(); ok || util != 0 {
		t.Errorf("at t=0: Next = %v, %v; want 0, false", util, ok)
	}
	// 200 req/s of 8 ms backend work: 1.6 busy cores.
	load := k.Every(5*time.Millisecond, func() { c.SubmitMix() })
	var busy, capacity float64
	window := func(label string, cores float64) {
		t.Helper()
		b, cp := svc.CumulativeBusy(), svc.CumulativeCapacity()
		db, dc := b-busy, cp-capacity
		busy, capacity = b, cp
		if math.Abs(dc-cores) > 1e-9 {
			t.Errorf("%s: %v core-seconds of capacity in one second, want %v", label, dc, cores)
		}
		util, ok := m.Next()
		if !ok || util != db/dc {
			t.Errorf("%s: Next = %v, %v; want %v, true", label, util, ok, db/dc)
		}
		if util <= 0 || util > 1 {
			t.Errorf("%s: utilization %v outside (0, 1]", label, util)
		}
		if util, ok := m.Next(); ok || util != 0 {
			t.Errorf("%s, same instant: Next = %v, %v; want 0, false", label, util, ok)
		}
	}
	k.RunUntil(sim.Time(time.Second))
	window("2 cores", 2)
	if err := c.SetCores("backend", 4); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(2 * time.Second))
	window("4 cores", 4)
	if err := c.SetReplicas("backend", 3); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(3 * time.Second))
	window("3 replicas of 4 cores", 12)
	load.Stop()
	k.Run()
}
