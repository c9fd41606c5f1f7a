// Custom topology example: build your own microservice application and
// use the SCG model directly (without the controller) — the workflow a
// capacity engineer would follow to answer "what is the right pool size
// for my service under my deadline?".
//
// The example models a payment pipeline: an API gateway fans out to a
// fraud-check branch (CPU heavy) and a ledger branch (database bound
// behind a connection pool), then runs a 3-minute profiling workload and
// queries the SCG pipeline step by step: critical service localization,
// deadline propagation, scatter collection and knee estimation. Run with:
//
//	go run ./examples/customtopology
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
	// A payment request: gateway -> {fraud -> model-store, ledger -> ledger-db}.
	payment := &cluster.RequestType{
		Name: "pay",
		Root: &cluster.CallNode{
			Service:  "gateway",
			ReqWork:  dist.NewLogNormal(250*time.Microsecond, 0.4),
			ResWork:  dist.NewLogNormal(150*time.Microsecond, 0.4),
			Parallel: true,
			Children: []*cluster.CallNode{
				{
					Service: "fraud",
					ReqWork: dist.NewLogNormal(2*time.Millisecond, 0.5),
					Children: []*cluster.CallNode{{
						Service: "model-store",
						ReqWork: dist.NewLogNormal(500*time.Microsecond, 0.4),
					}},
				},
				{
					Service: "ledger",
					ReqWork: dist.NewLogNormal(800*time.Microsecond, 0.4),
					ResWork: dist.NewLogNormal(400*time.Microsecond, 0.4),
					Children: []*cluster.CallNode{{
						Service: "ledger-db",
						ReqWork: dist.NewLogNormal(5*time.Millisecond, 0.5),
					}},
				},
			},
		},
	}
	app := cluster.App{
		Name: "payments",
		Services: []cluster.ServiceSpec{
			{Name: "gateway", Replicas: 1, Cores: 4},
			{Name: "fraud", Replicas: 2, Cores: 2},
			{Name: "model-store", Replicas: 1, Cores: 4},
			// The ledger is asynchronous with a DB connection pool — the
			// soft resource under study. Start with a roomy pool so the
			// profiling run can observe the whole concurrency range.
			{Name: "ledger", Replicas: 1, Cores: 2, DBPool: 64},
			{Name: "ledger-db", Replicas: 1, Cores: 16},
		},
		Mix: []cluster.WeightedRequest{{Type: payment, Weight: 1}},
	}
	if err := app.Validate(); err != nil {
		return err
	}

	k := sim.NewKernel(2024)
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		return err
	}
	ref := cluster.ResourceRef{Service: "ledger", Kind: cluster.PoolDBConns}
	mon, err := core.NewMonitor(c, 0, []cluster.ResourceRef{ref}, c.ServiceNames())
	if err != nil {
		return err
	}
	mon.Start()

	// The SCG model reads the whole profiling run after it, so build it
	// first: it declares how far back the cluster keeps traces.
	dur := 3 * time.Minute
	scg, err := core.NewSCG(c, mon, core.SCGConfig{
		SLA:    150 * time.Millisecond,
		Window: dur,
	})
	if err != nil {
		return err
	}

	// Profile under a bursty 3-minute workload.
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.TraceUsers(workload.QuickVaryingTrace(), dur, 1500),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return err
	}
	loop.Start()
	k.RunUntil(sim.Time(dur))
	loop.Stop()
	mon.Stop()
	k.Run()
	fmt.Printf("profiling run: %d requests completed\n\n", c.Completed())

	// SCG pipeline, step by step.
	now := sim.Time(dur)

	critical, err := scg.CriticalService(now)
	if err != nil {
		return err
	}
	fmt.Println("1. critical service localization:", critical)

	threshold, err := scg.PropagateDeadline(now, "ledger")
	if err != nil {
		return err
	}
	fmt.Printf("2. propagated deadline for ledger: %v (SLA %v minus upstream PT)\n",
		threshold.Round(time.Millisecond), scg.Config().SLA)

	qs, gps, err := scg.CollectPairs(now, ref, "ledger", threshold)
	if err != nil {
		return err
	}
	fmt.Printf("3. metrics collection: %d <concurrency, goodput> samples at %v granularity\n",
		len(qs), core.DefaultSampleInterval)

	res, err := scg.Estimate(qs, gps)
	if err != nil {
		return err
	}
	fmt.Printf("4. estimation: optimal ledger DB pool = %.0f connections (goodput %.0f req/s at the knee)\n",
		res.X, res.Y)

	// Or all four phases in one call:
	rec, err := scg.Recommend(now, []core.ManagedResource{{Ref: ref, Min: 2, Max: 128}})
	if err != nil {
		return err
	}
	fmt.Printf("\nRecommend() one-shot: %+d connections for %s (critical=%s, threshold=%v, %d samples)\n",
		rec.OptimalConcurrency, rec.Resource, rec.CriticalService,
		rec.Threshold.Round(time.Millisecond), rec.Pairs)
	return nil
}
