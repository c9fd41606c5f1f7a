package experiment

import (
	"fmt"
	"time"

	"sora/internal/cluster"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// sweepCase describes one goodput-vs-pool-size sweep: a scenario factory
// parameterized by pool size, driven at fixed load, measured at one or
// more response-time thresholds.
type sweepCase struct {
	// build returns the app with the given pool size applied plus the
	// mix to drive.
	build func(size int) (cluster.App, []cluster.WeightedRequest)
	// users is the closed-loop population.
	users int
	// duration of each run (before Params scaling).
	duration time.Duration
	// warmup excluded from measurement.
	warmup time.Duration
	// measure reads goodput from the run; defaults to end-to-end
	// completions against threshold.
	service string // measured via service span log when non-empty
}

// sweepPoint is one measured sweep sample.
type sweepPoint struct {
	size    int
	goodput map[time.Duration]float64 // per threshold, req/s
	util    float64                   // measured service (or whole-run cart) busy utilization
	p95     time.Duration
}

// runSweep executes the case for every pool size and threshold. Each size
// is an independent simulation (own kernel, own seed derived from the
// size), so the points run on the worker pool; the returned slice is in
// sizes order regardless of parallelism.
func runSweep(p Params, sc sweepCase, sizes []int, thresholds []time.Duration, utilService string) ([]sweepPoint, error) {
	dur := p.scale(sc.duration)
	warm := sc.warmup
	if warm >= dur {
		warm = dur / 5
	}
	grp := p.Telemetry.Group("sweep")
	return parMap(p, len(sizes), func(i int) (sweepPoint, error) {
		size := sizes[i]
		app, mix := sc.build(size)
		r, err := newRig(rigConfig{
			seed:         p.Seed + uint64(size)*1000003,
			app:          app,
			mix:          mix,
			target:       workload.ConstantUsers(sc.users),
			tel:          grp.Unit(i, fmt.Sprintf("size-%d", size)),
			flightWindow: p.Timeline,
			prof:         p.Profile,
		})
		if err != nil {
			return sweepPoint{}, err
		}
		r.run(dur)
		end := sim.Time(dur)
		pt := sweepPoint{size: size, goodput: make(map[time.Duration]float64, len(thresholds))}
		log := r.e2e
		if sc.service != "" {
			svc, err := r.c.Service(sc.service)
			if err != nil {
				return sweepPoint{}, err
			}
			log = svc.SpanLog()
		}
		for _, th := range thresholds {
			pt.goodput[th] = log.GoodputRate(sim.Time(warm), end, th)
		}
		if p95, err := r.e2e.Percentile(95, sim.Time(warm), end); err == nil {
			pt.p95 = p95
		}
		if utilService != "" {
			if svc, err := r.c.Service(utilService); err == nil {
				capacity := svc.CumulativeCapacity()
				if capacity > 0 {
					pt.util = svc.CumulativeBusy() / capacity
				}
			}
		}
		return pt, nil
	})
}

// bestSize returns the pool size with the highest goodput at the
// threshold.
func bestSize(points []sweepPoint, threshold time.Duration) int {
	best, bestGP := 0, -1.0
	for _, pt := range points {
		if gp := pt.goodput[threshold]; gp > bestGP {
			best, bestGP = pt.size, gp
		}
	}
	return best
}

// maxGoodput returns the highest goodput at the threshold (for
// normalization).
func maxGoodput(points []sweepPoint, threshold time.Duration) float64 {
	best := 0.0
	for _, pt := range points {
		if gp := pt.goodput[threshold]; gp > best {
			best = gp
		}
	}
	return best
}

// cartSweep builds the Cart thread-pool sweep case at the given core
// limit and user population.
func cartSweep(cores float64, users int) sweepCase {
	return sweepCase{
		build: func(size int) (cluster.App, []cluster.WeightedRequest) {
			cfg := topology.DefaultSockShop()
			cfg.CartCores = cores
			cfg.CartThreads = size
			app := topology.SockShop(cfg)
			return app, topology.CartOnlyMix(app)
		},
		users:    users,
		duration: 3 * time.Minute, // the paper's 3-minute profiling runs
		warmup:   15 * time.Second,
	}
}

// postStorageSweep builds the Post Storage request-connection sweep case
// (light or heavy reads) against a 4-core Post Storage pod, the fixed
// hardware of the Figure 3(e)/(f) panels.
func postStorageSweep(users int, heavy bool) sweepCase {
	return sweepCase{
		build: func(size int) (cluster.App, []cluster.WeightedRequest) {
			cfg := topology.DefaultSocialNetwork()
			cfg.PostStorageConns = size
			cfg.PostStorageCores = 4
			app := topology.SocialNetwork(cfg)
			return app, topology.HomeTimelineOnlyMix(heavy)
		},
		users:    users,
		duration: 3 * time.Minute,
		warmup:   15 * time.Second,
	}
}

// kneeSize returns the smallest pool size whose goodput reaches within
// tol of the maximum at the threshold — the knee of the sweep curve
// (goodput plateaus are common; the optimum is the cheapest allocation
// on the plateau, matching how the paper reads its Figure 3 panels).
func kneeSize(points []sweepPoint, threshold time.Duration, tol float64) int {
	peak := maxGoodput(points, threshold)
	if peak <= 0 {
		return bestSize(points, threshold)
	}
	for _, pt := range points {
		if pt.goodput[threshold] >= (1-tol)*peak {
			return pt.size
		}
	}
	return bestSize(points, threshold)
}
