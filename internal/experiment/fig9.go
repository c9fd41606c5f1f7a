package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/scenario"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// Figure 9 validates the SCG model's estimation for three different soft
// resources:
//
//	(a) Cart server threads — SpringBoot-style thread pool
//	(b) Catalogue database connections — Golang database/sql pool
//	(c) Post Storage request connections — Thrift ClientPool
//
// Each case has two halves: (i) a 3-minute estimation run where the SCG
// model recommends an optimal concurrency from the live scatter; (ii) a
// validation sweep showing that the recommended setting achieves the
// highest goodput across workload levels against adjacent allocations.
func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: SCG estimation + validation for threads / DB conns / request conns",
		Run:   runFig9,
	})
}

// fig9Case describes one estimation+validation study.
type fig9Case struct {
	name        string
	paperRec    int
	threshold   time.Duration // service-level goodput threshold (paper: 10/10/15 ms)
	ref         cluster.ResourceRef
	estUsers    int   // estimation-run population
	estPool     int   // roomy pool for the estimation run
	candidates  []int // validation pool sizes (paper's four lines)
	sweepUsers  []int // validation workload levels
	build       func(size int) (cluster.App, []cluster.WeightedRequest)
	sloEndToEnd time.Duration
}

// measured is the service whose span log the case reads: its ref's
// measured service, the one the rig's monitor declares.
func (fc fig9Case) measured() string {
	return core.ManagedResource{Ref: fc.ref}.MeasuredService()
}

func fig9Cases() []fig9Case {
	cartBuild := func(size int) (cluster.App, []cluster.WeightedRequest) {
		cfg := topology.DefaultSockShop()
		cfg.CartCores = 2
		cfg.CartThreads = size
		app := topology.SockShop(cfg)
		return app, topology.CartOnlyMix(app)
	}
	catalogueBuild := func(size int) (cluster.App, []cluster.WeightedRequest) {
		cfg := topology.DefaultSockShop()
		cfg.CatalogueConns = size
		app := topology.SockShop(cfg)
		return app, topology.BrowseOnlyMix(app)
	}
	psBuild := func(size int) (cluster.App, []cluster.WeightedRequest) {
		cfg := topology.DefaultSocialNetwork()
		cfg.PostStorageConns = size
		cfg.PostStorageCores = 4
		app := topology.SocialNetwork(cfg)
		return app, topology.HomeTimelineOnlyMix(false)
	}
	return []fig9Case{
		{
			name:        "(a) threads in Cart (paper: 5 threads @ 10ms threshold)",
			paperRec:    5,
			threshold:   30 * time.Millisecond,
			ref:         cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads},
			estUsers:    900,
			estPool:     60,
			candidates:  []int{3, 5, 15, 25},
			sweepUsers:  []int{600, 700, 800, 900},
			build:       cartBuild,
			sloEndToEnd: 250 * time.Millisecond,
		},
		{
			name:        "(b) DB connections in Catalogue (paper: 15 conns @ 10ms threshold)",
			paperRec:    15,
			threshold:   15 * time.Millisecond,
			ref:         cluster.ResourceRef{Service: topology.Catalogue, Kind: cluster.PoolDBConns},
			estUsers:    2400,
			estPool:     60,
			candidates:  []int{10, 15, 20, 25},
			sweepUsers:  []int{1800, 2000, 2200, 2400},
			build:       catalogueBuild,
			sloEndToEnd: 250 * time.Millisecond,
		},
		{
			name:        "(c) request connections to Post Storage (paper: 10 conns @ 15ms threshold)",
			paperRec:    10,
			threshold:   15 * time.Millisecond,
			ref:         cluster.ResourceRef{Service: topology.HomeTimeline, Kind: cluster.PoolClientConns, Target: topology.PostStorage},
			estUsers:    2000,
			estPool:     60,
			candidates:  []int{5, 10, 15, 25},
			sweepUsers:  []int{1600, 1800, 2000, 2200},
			build:       psBuild,
			sloEndToEnd: 250 * time.Millisecond,
		},
	}
}

func runFig9(p Params, w io.Writer) error {
	for ci, fc := range fig9Cases() {
		fmt.Fprintf(w, "\nFigure 9%s\n", fc.name)
		caseGrp := p.Telemetry.Group(fmt.Sprintf("case-%c", 'a'+ci))
		rec, err := fig9Estimate(p.unitParams(caseGrp.Group("estimate")), fc)
		if err != nil {
			return fmt.Errorf("fig9 case %d estimation: %w", ci, err)
		}
		fmt.Fprintf(w, "(i) model estimation: SCG recommends %d (threshold %v; paper recommends %d)\n",
			rec, fc.threshold, fc.paperRec)

		// (ii) validation sweep: recommended value vs candidates across
		// workload levels.
		sizes := append([]int{}, fc.candidates...)
		found := false
		for _, s := range sizes {
			if s == rec {
				found = true
			}
		}
		if !found {
			sizes = append(sizes, rec)
		}
		fmt.Fprintf(w, "(ii) validation, goodput [req/s] per workload (threshold %v):\n", fc.threshold)
		fmt.Fprintf(w, "%12s", "users")
		for _, s := range sizes {
			label := fmt.Sprintf("pool-%d", s)
			if s == rec {
				label += "*"
			}
			fmt.Fprintf(w, " %12s", label)
		}
		fmt.Fprintln(w)
		// Every (workload, size) cell is an independent simulation: fan
		// the whole validation grid out on the worker pool, then print
		// rows in workload order.
		valGrp := caseGrp.Group("validate")
		grid, err := parMap(p, len(fc.sweepUsers)*len(sizes), func(i int) (float64, error) {
			users, size := fc.sweepUsers[i/len(sizes)], sizes[i%len(sizes)]
			unit := valGrp.Unit(i, fmt.Sprintf("users-%d-pool-%d", users, size))
			return fig9Validate(p.unitParams(unit), fc, size, users)
		})
		if err != nil {
			return fmt.Errorf("fig9 case %d validation: %w", ci, err)
		}
		recWins := 0
		var rows [][]float64
		for ui, users := range fc.sweepUsers {
			row := []float64{float64(users)}
			fmt.Fprintf(w, "%12d", users)
			bestGP, recGP := -1.0, 0.0
			gps := grid[ui*len(sizes) : (ui+1)*len(sizes)]
			for si, size := range sizes {
				if gps[si] > bestGP {
					bestGP = gps[si]
				}
				if size == rec {
					recGP = gps[si]
				}
			}
			for _, gp := range gps {
				fmt.Fprintf(w, " %12.0f", gp)
				row = append(row, gp)
			}
			// Validation success: the recommended setting achieves the
			// best goodput within measurement noise (3%).
			if bestGP > 0 && recGP >= 0.97*bestGP {
				recWins++
				fmt.Fprintf(w, "  <-- recommended within 3%% of best")
			}
			fmt.Fprintln(w)
			rows = append(rows, row)
		}
		fmt.Fprintf(w, "recommended setting best (within 3%%) at %d/%d workload levels\n", recWins, len(fc.sweepUsers))
		header := []string{"users"}
		for _, s := range sizes {
			header = append(header, fmt.Sprintf("pool_%d", s))
		}
		if err := writeCSV(p, fmt.Sprintf("fig9_case_%c", 'a'+ci), header, rows); err != nil {
			return err
		}
	}
	return nil
}

// fig9Estimate runs the 3-minute estimation phase and returns the SCG
// recommendation.
func fig9Estimate(p Params, fc fig9Case) (int, error) {
	dur := p.scale(3 * time.Minute)
	app, mix := fc.build(fc.estPool)
	r, err := buildPostRun(p.observe(scenario.Scenario{
		Seed:     p.Seed,
		App:      app,
		Mix:      mix,
		Refs:     []cluster.ResourceRef{fc.ref},
		Target:   workload.TraceUsers(workload.LargeVariationTrace(), dur, fc.estUsers),
		Duration: dur,
	}))
	if err != nil {
		return 0, err
	}
	// The model reads the whole run after it, so it declares its reach
	// before the run.
	scg, err := core.NewSCG(r.C, r.Mon, core.SCGConfig{
		SLA:              fc.sloEndToEnd,
		Window:           dur,
		PlateauTolerance: 0.05,
	})
	if err != nil {
		return 0, err
	}
	execute(r)
	qs, gps, err := scg.CollectPairs(sim.Time(dur), fc.ref, fc.measured(), fc.threshold)
	if err != nil {
		return 0, err
	}
	res, err := scg.Estimate(qs, gps)
	if err != nil {
		return 0, err
	}
	rec := int(res.X + 0.5)
	if rec < 1 {
		rec = 1
	}
	return rec, nil
}

// fig9Validate measures the goodput of one pool size at one workload
// level against the case's service-level threshold.
func fig9Validate(p Params, fc fig9Case, size, users int) (float64, error) {
	dur := p.scale(100 * time.Second)
	app, mix := fc.build(size)
	r, err := simulatePostRun(p.observe(scenario.Scenario{
		Seed:     p.Seed + uint64(size)*17 + uint64(users),
		App:      app,
		Mix:      mix,
		Refs:     []cluster.ResourceRef{fc.ref},
		Target:   workload.ConstantUsers(users),
		Duration: dur,
	}))
	if err != nil {
		return 0, err
	}
	svc, err := r.C.Service(fc.measured())
	if err != nil {
		return 0, err
	}
	warm := sim.Time(10 * time.Second)
	return svc.SpanLog().GoodputRate(warm, sim.Time(dur), fc.threshold), nil
}
