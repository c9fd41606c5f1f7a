package scenario

import (
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/fault"
	"sora/internal/topology"
)

// PostStorageMaxReplicas bounds the Social Network read path's HPA.
const PostStorageMaxReplicas = 6

// SockShopCart is the Cart scenario of Figures 10-11 and the chaos
// experiment on the given deployment: cart-only load, FIRM moving
// Cart between 2 and 4 cores against sla, and SCG adapting Cart's
// thread pool between 2 and 200 over a 45 s window after a 30 s
// warm-up. With a fault plan, Sock Shop's resilience policies guard the
// run and the faults hit Cart, its database, the front-end→Cart edge
// and Cart's pool. Callers set the seed, load and duration, and drop
// the model or scaler for the baselines.
func SockShopCart(cfg topology.SockShopConfig, sla time.Duration) Scenario {
	app := topology.SockShop(cfg)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	return Scenario{
		App:  app,
		Mix:  topology.CartOnlyMix(app),
		Refs: []cluster.ResourceRef{ref},
		FaultTargets: fault.Targets{
			CrashService: topology.Cart,
			SlowService:  topology.CartDB,
			EdgeCaller:   topology.FrontEnd,
			EdgeCallee:   topology.Cart,
			ClampRef:     ref,
			ClampSize:    4,
		},
		Policies: topology.SockShopResilience(),
		Scaler:   FIRM{Service: topology.Cart, SLO: sla, Ladder: []float64{2, 4}},
		Model: &Model{
			Config:  core.SCGConfig{SLA: sla, Window: 45 * time.Second},
			Managed: []core.ManagedResource{{Ref: ref, Min: 2, Max: 200}},
			Warmup:  30 * time.Second,
		},
	}
}

// SocialNetworkReadPath is the Figure-12 read path on the given
// deployment: light home-timeline reads fanning out to Post Storage
// over Home Timeline's client-connection pool, HPA scaling Post Storage
// out to PostStorageMaxReplicas, and SCG adapting the pool between 4
// and 300 against SLA over a 45 s window after a 30 s warm-up. With a
// fault plan, Social Network's resilience policies guard the run and
// the faults hit Social Graph (an optional edge: it degrades, not
// fails), Post Storage, the Home Timeline→Post Storage edge and the
// pool.
func SocialNetworkReadPath(cfg topology.SocialNetworkConfig) Scenario {
	ref := cluster.ResourceRef{
		Service: topology.HomeTimeline,
		Kind:    cluster.PoolClientConns,
		Target:  topology.PostStorage,
	}
	return Scenario{
		App:  topology.SocialNetwork(cfg),
		Mix:  topology.HomeTimelineOnlyMix(false),
		Refs: []cluster.ResourceRef{ref},
		FaultTargets: fault.Targets{
			CrashService: topology.SocialGraph,
			SlowService:  topology.PostStorage,
			EdgeCaller:   topology.HomeTimeline,
			EdgeCallee:   topology.PostStorage,
			ClampRef:     ref,
			ClampSize:    4,
		},
		Policies: topology.SocialNetworkResilience(),
		Scaler:   HPA{Service: topology.PostStorage, MaxReplicas: PostStorageMaxReplicas},
		Model: &Model{
			Config:  core.SCGConfig{SLA: SLA, Window: 45 * time.Second},
			Managed: []core.ManagedResource{{Ref: ref, Min: 4, Max: 300}},
			Warmup:  30 * time.Second,
		},
	}
}
