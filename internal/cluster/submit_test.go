package cluster_test

import (
	"strings"
	"testing"

	"sora/internal/cluster"
	"sora/internal/sim"
)

// TestSubmitWithRejectsUnknownService submits a request type outside
// the mix whose tree calls a service the cluster does not deploy:
// compiling it must fail with an error naming the type and the service,
// and nothing may be submitted.
func TestSubmitWithRejectsUnknownService(t *testing.T) {
	k := sim.NewKernel(1)
	c, err := cluster.New(k, cluster.TwoTier(0, 0), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := &cluster.RequestType{
		Name: "ghost-read",
		Root: &cluster.CallNode{Service: "frontend", Children: []*cluster.CallNode{{Service: "ghost"}}},
	}
	err = c.SubmitWith(rt, nil)
	if err == nil || !strings.Contains(err.Error(), `"ghost-read"`) || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("SubmitWith = %v, want an error naming type \"ghost-read\" and service \"ghost\"", err)
	}
	if err := c.SubmitWith(nil, nil); err == nil {
		t.Error("SubmitWith(nil) accepted")
	}
	k.Run()
	if c.InFlight() != 0 || c.Completed() != 0 || c.Failed() != 0 {
		t.Errorf("a rejected type ran: in flight %d, completed %d, failed %d", c.InFlight(), c.Completed(), c.Failed())
	}
	// A valid type outside the mix compiles on first use and runs.
	ok := &cluster.RequestType{Name: "direct", Root: &cluster.CallNode{Service: "backend"}}
	if err := c.SubmitWith(ok, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if c.Completed() != 1 {
		t.Errorf("completed %d, want 1", c.Completed())
	}
}
