// Quickstart: the smallest end-to-end Sora loop.
//
// It deploys a three-service chain (gateway -> api -> db) on the
// simulated cluster, drives it with a closed-loop population, and lets a
// Sora controller (SCG model, no hardware scaler) adapt the api service's
// thread pool at runtime. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/dist"
	"sora/internal/sim"
	"sora/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Describe the application: services and one request type.
	reqType := &cluster.RequestType{
		Name: "get",
		Root: &cluster.CallNode{
			Service: "gateway",
			ReqWork: dist.NewLogNormal(300*time.Microsecond, 0.4),
			ResWork: dist.NewLogNormal(200*time.Microsecond, 0.4),
			Children: []*cluster.CallNode{{
				Service: "api",
				ReqWork: dist.NewLogNormal(1500*time.Microsecond, 0.4),
				ResWork: dist.NewLogNormal(500*time.Microsecond, 0.4),
				Children: []*cluster.CallNode{{
					Service: "db",
					ReqWork: dist.NewLogNormal(4*time.Millisecond, 0.4),
				}},
			}},
		},
	}
	app := cluster.App{
		Name: "quickstart",
		Services: []cluster.ServiceSpec{
			{Name: "gateway", Replicas: 1, Cores: 4},
			{Name: "api", Replicas: 1, Cores: 2, ThreadPool: 4}, // deliberately snug
			{Name: "db", Replicas: 1, Cores: 8},
		},
		Mix: []cluster.WeightedRequest{{Type: reqType, Weight: 1}},
	}

	// 2. Deploy it on a simulation kernel.
	k := sim.NewKernel(42)
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		return err
	}

	// 3. Monitor the api thread pool (Sora's Monitoring Module).
	ref := cluster.ResourceRef{Service: "api", Kind: cluster.PoolThreads}
	mon, err := core.NewMonitor(c, 0, []cluster.ResourceRef{ref}, c.ServiceNames())
	if err != nil {
		return err
	}
	mon.Start()

	// 4. Attach the Sora controller: SCG model, 250ms end-to-end SLA.
	scg, err := core.NewSCG(c, mon, core.SCGConfig{SLA: 250 * time.Millisecond})
	if err != nil {
		return err
	}
	ctl, err := core.NewController(c, core.ControllerConfig{
		Model:   scg,
		Managed: []core.ManagedResource{{Ref: ref, Min: 2, Max: 64}},
		Warmup:  20 * time.Second,
	})
	if err != nil {
		return err
	}
	ctl.Start()

	// The report below reads the last 30s of end-to-end completions.
	if err := c.RecordCompletions(30 * time.Second); err != nil {
		return err
	}

	// 5. Drive a closed-loop population that doubles halfway through.
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: func(t sim.Time) int {
			if t < sim.Time(90*time.Second) {
				return 300
			}
			return 800
		},
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return err
	}
	loop.Start()

	// 6. Run three simulated minutes, reporting once per 30s.
	for elapsed := 30 * time.Second; elapsed <= 3*time.Minute; elapsed += 30 * time.Second {
		k.RunUntil(sim.Time(elapsed))
		now := k.Now()
		p99, err := c.Completions().Percentile(99, now-sim.Time(30*time.Second), now)
		if err != nil {
			p99 = 0
		}
		size, err := c.PoolSize(ref)
		if err != nil {
			return err
		}
		goodput := c.Completions().GoodputRate(now-sim.Time(30*time.Second), now, 250*time.Millisecond)
		fmt.Printf("t=%-6v users=%-4d api-threads=%-3d p99=%-10v goodput=%.0f req/s\n",
			now, loop.Users(), size, p99.Round(time.Millisecond), goodput)
	}
	ctl.Stop()
	loop.Stop()
	mon.Stop()
	k.Run()

	fmt.Println("\nadaptations applied by Sora:")
	for _, e := range ctl.Events() {
		fmt.Println(" ", e)
	}
	fmt.Printf("\ntotal requests completed: %d\n", c.Completed())
	return nil
}
