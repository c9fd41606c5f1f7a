package cluster

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"sora/internal/dist"
	"sora/internal/node"
	"sora/internal/sim"
	"sora/internal/trace"
)

// edgeOf returns the configured state of one caller→callee edge, or nil
// when the edge has none, resolving the names once.
func edgeOf(c *Cluster, caller, callee string) *edgeState {
	if c.edgeTab == nil {
		return nil
	}
	return c.edgeTab[int(c.services[caller].id)*len(c.svcs)+int(c.services[callee].id)]
}

// TestSpanSize pins a live span to its 112 B size class (it is 104 B):
// the cluster recycles spans, and a larger one would raise every traced
// request's footprint by a size class.
func TestSpanSize(t *testing.T) {
	if got := unsafe.Sizeof(trace.Span{}); got > 112 {
		t.Fatalf("trace.Span is %d B, want <= 112", got)
	}
}

// checkPodRecords reads every stored trace of c as records and checks
// that each stamped id resolves to the pod that served the visit: the
// spans naming a pod must number exactly the visits that pod completed,
// and a record's pod must belong to its service. It returns how many
// stored traces each request type has.
func checkPodRecords(t *testing.T, c *Cluster) map[string]int {
	t.Helper()
	names := c.TraceNames()
	spans := map[string]uint64{}
	types := map[string]int{}
	all := allTraces(c)
	for i := range all.Len() {
		tr := all.At(i)
		types[tr.Type]++
		for _, r := range tr.Records(nil) {
			if r.Instance < 0 {
				continue // refused before it reached a pod
			}
			svc, pod := names.Service(r.Service), names.Instance(r.Instance)
			if !strings.HasPrefix(pod, svc+"-") {
				t.Errorf("a %s span names pod %q", svc, pod)
			}
			spans[pod]++
		}
	}
	for _, svc := range c.svcs {
		for _, in := range svc.instances {
			if got, want := spans[in.id], in.Stats().Completed; got != want {
				t.Errorf("%d spans name pod %s, which completed %d visits", got, in.id, want)
			}
		}
	}
	return types
}

// TestLatePodsStampTheirOwnIDs covers pods created after New and a
// request type first seen mid-run: a scale-out's pods and a control-plane
// replacement after a node crash each take the next instance id, the
// records of the visits they serve resolve to their own names, and a
// type set by SetMix mid-run compiles and completes.
func TestLatePodsStampTheirOwnIDs(t *testing.T) {
	fanout := &RequestType{
		Name: "fanout",
		Root: &CallNode{
			Service:  "frontend",
			ReqWork:  dist.NewDeterministic(time.Millisecond),
			Parallel: true,
			Children: []*CallNode{
				{Service: "backend", ReqWork: dist.NewDeterministic(2 * time.Millisecond)},
				{Service: "backend", ReqWork: dist.NewDeterministic(3 * time.Millisecond)},
			},
		},
	}
	submit := func(k *sim.Kernel, c *Cluster, n int) {
		for i := 0; i < n; i++ {
			k.Schedule(time.Duration(i)*time.Millisecond, c.SubmitMix)
		}
		k.Run()
	}

	t.Run("scale-out", func(t *testing.T) {
		k := sim.NewKernel(3)
		c := mustCluster(t, k, twoTier(0, 0))
		retainTraces(t, c)
		submit(k, c, 20)
		if err := c.SetReplicas("backend", 3); err != nil {
			t.Fatal(err)
		}
		if err := c.SetMix([]WeightedRequest{{Type: fanout, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
		submit(k, c, 30)
		svc, _ := c.Service("backend")
		for _, in := range svc.instances {
			if in.Stats().Completed == 0 {
				t.Fatalf("pod %s served nothing; the check below would not cover it", in.id)
			}
		}
		if types := checkPodRecords(t, c); types["get"] != 20 || types["fanout"] != 30 {
			t.Errorf("stored traces per type = %v, want 20 get and 30 fanout", types)
		}
	})

	t.Run("node-crash replacement", func(t *testing.T) {
		k := sim.NewKernel(4)
		c := mustCPCluster(t, k, twoTier(0, 0), cpConfig(2, 6, time.Second, 200*time.Millisecond, node.LBRoundRobin))
		retainTraces(t, c)
		k.Run() // let the initial deployment settle
		submit(k, c, 10)
		svc, _ := c.Service("backend")
		cp := c.ControlPlane()
		for i := 0; i < cp.NodeCount(); i++ {
			if strings.Contains(cp.placement(svc), cp.Fleet().NodeName(i)) {
				cp.CrashNode(i)
				break
			}
		}
		k.Run() // replacement cold start + propagation
		if len(svc.instances) != 1 || svc.instances[0].id != "backend-1" {
			t.Fatalf("backend pods after the crash = %v, want the replacement backend-1", svc.Instances())
		}
		if err := c.SetMix([]WeightedRequest{{Type: fanout, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
		submit(k, c, 10)
		if types := checkPodRecords(t, c); types["get"] != 10 || types["fanout"] != 10 {
			t.Errorf("stored traces per type = %v, want 10 get and 10 fanout", types)
		}
	})
}

// TestMidRunEdgeAndClientPool sets an edge fault and a client pool on a
// running cluster that had neither, so the first sets the dense edge
// table up and the second adds a pool slot to a pod that had none: the
// request path must honour both at once.
func TestMidRunEdgeAndClientPool(t *testing.T) {
	k := sim.NewKernel(5)
	c := mustCluster(t, k, twoTier(0, 0))
	recordCompletions(t, c)
	rts := func() []time.Duration {
		var out []time.Duration
		for _, cp := range c.Completions().Window(0, k.Now()+1) {
			out = append(out, cp.RT)
		}
		return out
	}
	c.SubmitMix()
	k.Run()
	base := rts()[0]

	const delay = 20 * time.Millisecond
	if err := c.SetEdgeFault("frontend", "backend", EdgeFault{ExtraDelay: delay}); err != nil {
		t.Fatal(err)
	}
	c.SubmitMix()
	k.Run()
	if got, want := rts()[1], base+2*delay; got != want {
		t.Errorf("response time over the faulted edge = %v, want %v (one extra delay each way)", got, want)
	}

	if err := c.SetEdgeFault("frontend", "backend", EdgeFault{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPoolSize(ResourceRef{Service: "frontend", Kind: PoolClientConns, Target: "backend"}, 1); err != nil {
		t.Fatal(err)
	}
	fe, _ := c.Service("frontend")
	maxConns := 0
	for i := 0; i < 4; i++ {
		c.SubmitMix()
	}
	tick := k.Every(time.Millisecond, func() { maxConns = max(maxConns, fe.ClientConnsInUse("backend")) })
	k.RunUntil(k.Now() + sim.Time(100*time.Millisecond))
	tick.Stop()
	k.Run()
	if maxConns != 1 {
		t.Errorf("client conns in use peaked at %d with a pool of 1", maxConns)
	}
	if got := rts()[2:]; len(got) != 4 || got[3] < 4*8*time.Millisecond {
		t.Errorf("response times %v: four calls through one client slot must queue behind each other's 8 ms", got)
	}
}
