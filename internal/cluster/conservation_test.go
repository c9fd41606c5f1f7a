package cluster_test

import (
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/trace"
)

// TestCallRecordConservation checks the call-record pools' conservation
// invariant: once the kernel drains, every directCall, callState and
// attempt the cluster ever allocated is back on its free list. A leaked
// record means a continuation path that never recycles; a record freed
// twice shows up as more free than made.
func TestCallRecordConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup builds the cluster and submits its traffic; check asserts
		// the scenario actually took the path it is named after.
		setup func(t *testing.T, k *sim.Kernel) *cluster.Cluster
		check func(t *testing.T, c *cluster.Cluster, pools []cluster.CallPool, done []*trace.Trace)
	}{
		{
			name: "social network burst",
			setup: func(t *testing.T, k *sim.Kernel) *cluster.Cluster {
				c := mustNew(t, k, topology.SocialNetwork(topology.DefaultSocialNetwork()))
				// A burst at one instant makes calls queue on the
				// connection pools, so wait-list continuations run too.
				for i := 0; i < 300; i++ {
					c.SubmitMix()
				}
				return c
			},
			check: func(t *testing.T, c *cluster.Cluster, pools []cluster.CallPool, _ []*trace.Trace) {
				if pools[0].Made == 0 {
					t.Error("no direct call was made")
				}
				if c.Completed() != 300 {
					t.Errorf("completed = %d, want 300", c.Completed())
				}
			},
		},
		{
			name: "social network with resilience mesh",
			setup: func(t *testing.T, k *sim.Kernel) *cluster.Cluster {
				c := mustNew(t, k, topology.SocialNetwork(topology.DefaultSocialNetwork()))
				if err := topology.ApplyResilience(c, topology.SocialNetworkResilience()); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 300; i++ {
					c.SubmitMix()
				}
				return c
			},
			check: func(t *testing.T, c *cluster.Cluster, pools []cluster.CallPool, _ []*trace.Trace) {
				if pools[1].Made == 0 || pools[2].Made == 0 {
					t.Error("no policy-edge call was made")
				}
			},
		},
		{
			// The 5ms timeout fires while the backend is still working
			// its 8ms; the optional call degrades, the caller finishes,
			// and the backend's answer lands after the root completed.
			name: "late answer after timeout",
			setup: func(t *testing.T, k *sim.Kernel) *cluster.Cluster {
				c := mustNew(t, k, cluster.TwoTier(0, 0))
				setPolicy(t, c, cluster.CallPolicy{Timeout: 5 * time.Millisecond, MaxAttempts: 1, Optional: true})
				c.SubmitMix()
				return c
			},
			check: func(t *testing.T, c *cluster.Cluster, _ []cluster.CallPool, done []*trace.Trace) {
				if c.TimedOut() != 1 || len(done) != 1 || len(done[0].Records(nil)) != 2 {
					t.Fatalf("timed out=%d completed traces=%d, want one degraded trace after one timeout", c.TimedOut(), len(done))
				}
				recs := done[0].Records(nil)
				if root, child := recs[0], recs[1]; !child.Abandoned || child.End <= root.End {
					t.Errorf("child abandoned=%v end=%v, root end=%v: want an abandoned child answering after the root", child.Abandoned, child.End, root.End)
				}
			},
		},
		{
			// 10ms of edge delay against a 5ms timeout: the attempt
			// times out while the request is on the wire and the callee
			// runs it as an orphan.
			name: "timeout on the wire",
			setup: func(t *testing.T, k *sim.Kernel) *cluster.Cluster {
				c := mustNew(t, k, cluster.TwoTier(0, 0))
				setPolicy(t, c, cluster.CallPolicy{Timeout: 5 * time.Millisecond, MaxAttempts: 2})
				if err := c.SetEdgeFault("frontend", "backend", cluster.EdgeFault{ExtraDelay: 10 * time.Millisecond}); err != nil {
					t.Fatal(err)
				}
				c.SubmitMix()
				return c
			},
			check: func(t *testing.T, c *cluster.Cluster, _ []cluster.CallPool, _ []*trace.Trace) {
				if c.TimedOut() != 2 || c.Failed() != 1 {
					t.Errorf("timed out=%d failed=%d, want 2/1", c.TimedOut(), c.Failed())
				}
			},
		},
		{
			// Loss with no timeout surfaces as a one-hop connection
			// reset: the attempt's only leg is the lost callback.
			name: "wire loss without timeout",
			setup: func(t *testing.T, k *sim.Kernel) *cluster.Cluster {
				c := mustNew(t, k, cluster.TwoTier(0, 0))
				if err := c.SetEdgeFault("frontend", "backend", cluster.EdgeFault{LossProb: 1}); err != nil {
					t.Fatal(err)
				}
				c.SubmitMix()
				return c
			},
			check: func(t *testing.T, c *cluster.Cluster, _ []cluster.CallPool, _ []*trace.Trace) {
				if c.LostCalls() != 1 || c.Failed() != 1 {
					t.Errorf("lost=%d failed=%d, want 1/1", c.LostCalls(), c.Failed())
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(11)
			c := tc.setup(t, k)
			var done []*trace.Trace
			c.OnComplete(func(tr *trace.Trace) { done = append(done, tr.Retain()) })
			k.Run()
			if c.InFlight() != 0 {
				t.Fatalf("in-flight = %d after drain", c.InFlight())
			}
			pools := c.CallPools()
			for _, p := range pools {
				if p.Free != p.Made {
					t.Errorf("%s: %d made, %d back on the free list after drain", p.Name, p.Made, p.Free)
				}
			}
			tc.check(t, c, pools, done)
		})
	}
}

func mustNew(t *testing.T, k *sim.Kernel, app cluster.App) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func setPolicy(t *testing.T, c *cluster.Cluster, p cluster.CallPolicy) {
	t.Helper()
	if err := c.SetCallPolicy("frontend", "backend", p); err != nil {
		t.Fatal(err)
	}
}
