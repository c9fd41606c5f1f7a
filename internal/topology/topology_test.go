package topology

import (
	"testing"
	"time"

	"sora/internal/cluster"
	"sora/internal/sim"
	"sora/internal/trace"
	"sora/internal/workload"
)

// compiles checks app's services and has a cluster compile its mix,
// which checks every request type's tree.
func compiles(t *testing.T, app cluster.App) {
	t.Helper()
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.New(sim.NewKernel(1), app, cluster.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestSockShopValidates(t *testing.T) {
	app := SockShop(DefaultSockShop())
	compiles(t, app)
	if len(app.Services) != 12 {
		t.Errorf("sock shop has %d services, want 12", len(app.Services))
	}
}

func TestSocialNetworkValidates(t *testing.T) {
	app := SocialNetwork(DefaultSocialNetwork())
	compiles(t, app)
	if len(app.Services) < 20 {
		t.Errorf("social network has %d services, want >= 20", len(app.Services))
	}
	heavy := SocialNetwork(SocialNetworkConfig{})
	heavy.Mix = HomeTimelineOnlyMix(true)
	compiles(t, heavy)
}

func TestSockShopRequestsComplete(t *testing.T) {
	k := sim.NewKernel(1)
	app := SockShop(DefaultSockShop())
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RecordCompletions(trace.DefaultRetention); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	c.OnComplete(func(tr *trace.Trace) { types[tr.Type]++ })
	runUsers(t, k, c, 200, 10*time.Second)
	if c.InFlight() != 0 {
		t.Errorf("in-flight = %d after drain", c.InFlight())
	}
	for _, want := range []string{ReqGetCart, ReqGetCatalogue, ReqBrowse, ReqPlaceOrder} {
		if types[want] == 0 {
			t.Errorf("request type %q never completed", want)
		}
	}
	// Unloaded getCart should be fast: p95 under 50ms at 200 req/s.
	p95, err := c.Completions().Percentile(95, 0, sim.Time(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if p95 > 100*time.Millisecond {
		t.Errorf("lightly loaded p95 = %v, want < 100ms", p95)
	}
}

func TestSockShopCriticalPathThroughCartOrCatalogue(t *testing.T) {
	k := sim.NewKernel(2)
	app := SockShop(DefaultSockShop())
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seenCart, seenCatalogue bool
	c.OnComplete(func(tr *trace.Trace) {
		if tr.Type != ReqGetCatalogue {
			return
		}
		for _, s := range tr.CriticalPathServices() {
			if s == Cart {
				seenCart = true
			}
			if s == Catalogue {
				seenCatalogue = true
			}
		}
	})
	runUsers(t, k, c, 300, 20*time.Second)
	// Figure 5's point: either branch can dominate depending on runtime
	// conditions. Both must appear across many requests.
	if !seenCart || !seenCatalogue {
		t.Errorf("critical path variety: cart=%v catalogue=%v, want both", seenCart, seenCatalogue)
	}
}

func TestSocialNetworkRequestsComplete(t *testing.T) {
	k := sim.NewKernel(3)
	app := SocialNetwork(DefaultSocialNetwork())
	c, err := cluster.New(k, app, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	c.OnComplete(func(tr *trace.Trace) { types[tr.Type]++ })
	runUsers(t, k, c, 300, 10*time.Second)
	for _, want := range []string{ReqReadHomeTimeline, ReqReadUserTimeline, ReqComposePost, ReqSearch} {
		if types[want] == 0 {
			t.Errorf("request type %q never completed", want)
		}
	}
	if c.InFlight() != 0 {
		t.Errorf("in-flight = %d after drain", c.InFlight())
	}
}

func TestHeavyReadsBlockLongerOnPostStorage(t *testing.T) {
	run := func(heavy bool) time.Duration {
		k := sim.NewKernel(4)
		cfg := DefaultSocialNetwork()
		cfg.PostStorageConns = 0 // unlimited, isolate demand effect
		app := SocialNetwork(cfg)
		app.Mix = HomeTimelineOnlyMix(heavy)
		c, err := cluster.New(k, app, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var totalBlocked time.Duration
		var n int
		var recs []trace.Record
		c.OnComplete(func(tr *trace.Trace) {
			// The first post-storage visit, in pre-order.
			for _, r := range tr.Records(&recs) {
				if tr.Names.Service(r.Service) == PostStorage {
					totalBlocked += r.Blocked
					n++
					break
				}
			}
		})
		runUsers(t, k, c, 50, 10*time.Second)
		if n == 0 {
			t.Fatal("no post-storage spans")
		}
		return totalBlocked / time.Duration(n)
	}
	light := run(false)
	heavy := run(true)
	if heavy < 3*light {
		t.Errorf("heavy blocked %v not >> light blocked %v", heavy, light)
	}
}

func TestCartOnlyAndBrowseOnlyMixes(t *testing.T) {
	app := SockShop(DefaultSockShop())
	cart := CartOnlyMix(app)
	if len(cart) != 1 || cart[0].Type.Name != ReqGetCart {
		t.Errorf("CartOnlyMix = %v", cart)
	}
	browse := BrowseOnlyMix(app)
	if len(browse) != 1 || browse[0].Type.Name != ReqBrowse {
		t.Errorf("BrowseOnlyMix = %v", browse)
	}
}

func TestConfigKnobsApply(t *testing.T) {
	cfg := DefaultSockShop()
	cfg.CartCores = 4
	cfg.CartThreads = 30
	cfg.CatalogueConns = 25
	app := SockShop(cfg)
	for _, s := range app.Services {
		switch s.Name {
		case Cart:
			if s.Cores != 4 || s.ThreadPool != 30 {
				t.Errorf("cart spec = %+v", s)
			}
		case Catalogue:
			if s.DBPool != 25 {
				t.Errorf("catalogue spec = %+v", s)
			}
		}
	}
	snCfg := DefaultSocialNetwork()
	snCfg.PostStorageConns = 30
	snCfg.PostStorageReplicas = 4
	sn := SocialNetwork(snCfg)
	for _, s := range sn.Services {
		switch s.Name {
		case HomeTimeline:
			if s.ClientPools[PostStorage] != 30 {
				t.Errorf("home-timeline client pool = %d", s.ClientPools[PostStorage])
			}
		case PostStorage:
			if s.Replicas != 4 {
				t.Errorf("post-storage replicas = %d", s.Replicas)
			}
		}
	}
}

func TestLightVsHeavyPostCount(t *testing.T) {
	light := ReadHomeTimelineType("l", LightReadPosts)
	heavy := ReadHomeTimelineType("h", HeavyReadPosts)
	countMongo := func(rt *cluster.RequestType) int {
		n := 0
		var walk func(*cluster.CallNode)
		walk = func(cn *cluster.CallNode) {
			if cn.Service == PostStorageMongo {
				n++
			}
			for _, c := range cn.Children {
				walk(c)
			}
		}
		walk(rt.Root)
		return n
	}
	if countMongo(light) != LightReadPosts {
		t.Errorf("light mongo fetches = %d, want %d", countMongo(light), LightReadPosts)
	}
	if countMongo(heavy) != HeavyReadPosts {
		t.Errorf("heavy mongo fetches = %d, want %d", countMongo(heavy), HeavyReadPosts)
	}
}

// runUsers drives c with a closed population of users (1 s mean think
// time, so roughly that many requests per second) for d of virtual
// time, then drains the cluster.
func runUsers(t *testing.T, k *sim.Kernel, c *cluster.Cluster, users int, d time.Duration) {
	t.Helper()
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: workload.ConstantUsers(users),
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start()
	k.RunUntil(k.Now() + d)
	loop.Stop()
	k.Run()
}
