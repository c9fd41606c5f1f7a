// Package topology encodes the two benchmark applications the Sora paper
// evaluates on — Sock Shop (e-commerce, the paper's Figure 2(i)) and the
// DeathStarBench Social Network (Figure 2(ii)) — as cluster.App
// definitions: service specs (cores, replicas, soft-resource pools) and
// request execution trees with calibrated CPU demands.
//
// Demands are calibrated so that the paper's phenomena appear at
// comparable operating points: the Cart service is the thread-pool-limited
// SpringBoot tier, Catalogue is the asynchronous Golang tier limited by
// its database connection pool, and Home-Timeline reaches Post Storage
// through a client-side request connection pool (Thrift ClientPool).
// Absolute service times are smaller than a production deployment's; only
// their ratios (CPU work vs downstream blocking) shape the knees the SCG
// model finds, and those ratios follow the paper's narrative.
package topology

import (
	"time"

	"sora/internal/cluster"
	"sora/internal/dist"
)

// Service names shared by experiments (Sock Shop).
const (
	FrontEnd    = "front-end"
	Cart        = "cart"
	CartDB      = "cart-db"
	Catalogue   = "catalogue"
	CatalogueDB = "catalogue-db"
	User        = "user"
	UserDB      = "user-db"
	Orders      = "orders"
	OrdersDB    = "orders-db"
	Shipping    = "shipping"
	QueueMaster = "queue-master"
	Payment     = "payment"
)

// Request type names (Sock Shop).
const (
	ReqGetCart      = "getCart"
	ReqGetCatalogue = "getCatalogue"
	ReqBrowse       = "browse"
	ReqPlaceOrder   = "placeOrder"
)

// SockShopConfig carries the knobs the experiments sweep. The zero value
// is not meaningful; start from DefaultSockShop().
type SockShopConfig struct {
	// CartCores is the per-pod CPU limit of the Cart service (the paper
	// scales this 2 <-> 4).
	CartCores float64
	// CartThreads is Cart's server thread pool size per pod.
	CartThreads int
	// CatalogueConns is Catalogue's database connection pool size per pod
	// (concurrent calls to catalogue-db).
	CatalogueConns int
}

// DefaultSockShop returns the baseline configuration used across the
// reproduction: 2-core Cart with 5 threads (the paper's pre-profiled
// starting point in section 5.2) and a 15-connection Catalogue pool.
func DefaultSockShop() SockShopConfig {
	return SockShopConfig{
		CartCores:      2,
		CartThreads:    5,
		CatalogueConns: 15,
	}
}

// Sock Shop's request mix weights.
const (
	getCartWeight      = 1
	getCatalogueWeight = 1
	browseWeight       = 1
	placeOrderWeight   = 0.3
)

// Calibrated per-visit demand parameters for Sock Shop. Cart spends
// cartReqCPU+cartResCPU on CPU per request and blocks on cart-db for
// roughly dbDemand, so a thread is runnable for about a third of its
// residence time — the ratio that makes thread pools matter.
const (
	feReqCPU    = 300 * time.Microsecond
	feResCPU    = 200 * time.Microsecond
	cartReqCPU  = 1200 * time.Microsecond
	cartResCPU  = 800 * time.Microsecond
	cartDBCPU   = 6 * time.Millisecond
	catReqCPU   = 800 * time.Microsecond
	catResCPU   = 700 * time.Microsecond
	catDBCPU    = 3 * time.Millisecond
	lightCPU    = 500 * time.Microsecond
	demandSigma = 0.45 // log-space spread of all service demands
)

// Per-implementation multithreading-overhead coefficients (the psq alpha).
// The paper's section 2.1 stresses that heterogeneous implementations have
// heterogeneous soft-resource behaviour; the overhead curve is where that
// lands in this substrate:
//
//   - Event-driven/asynchronous runtimes (nginx, Golang, Thrift async
//     clients) schedule cheaply: thousands of goroutines barely tax the
//     CPU, so alpha is tiny.
//   - Thread-per-request servers (SpringBoot/Tomcat) pay real context
//     switch and stack costs per runnable thread: the package default.
//   - Databases degrade fastest with concurrency (lock contention, buffer
//     pool thrash): alpha is largest, which is why over-allocating
//     connection pools hurts (Figure 1's motivating pathology).
const (
	asyncOverhead    = 0.0005
	threadedOverhead = 0 // 0 selects psq.DefaultOverhead (0.004)
	lightSvcOverhead = 0.002
	dbOverhead       = 0.008
)

// SockShop builds the Sock Shop application with the given configuration.
func SockShop(cfg SockShopConfig) cluster.App {
	ln := func(mean time.Duration) dist.Distribution {
		return dist.NewLogNormal(mean, demandSigma)
	}

	cartNode := func() *cluster.CallNode {
		return &cluster.CallNode{
			Service: Cart,
			ReqWork: ln(cartReqCPU),
			ResWork: ln(cartResCPU),
			Children: []*cluster.CallNode{{
				Service: CartDB,
				ReqWork: ln(cartDBCPU),
			}},
		}
	}
	catalogueNode := func() *cluster.CallNode {
		return &cluster.CallNode{
			Service: Catalogue,
			ReqWork: ln(catReqCPU),
			ResWork: ln(catResCPU),
			Children: []*cluster.CallNode{{
				Service: CatalogueDB,
				ReqWork: ln(catDBCPU),
			}},
		}
	}
	fe := func(children []*cluster.CallNode, parallel bool) *cluster.CallNode {
		return &cluster.CallNode{
			Service:  FrontEnd,
			ReqWork:  ln(feReqCPU),
			ResWork:  ln(feResCPU),
			Children: children,
			Parallel: parallel,
		}
	}

	getCart := &cluster.RequestType{Name: ReqGetCart, Root: fe([]*cluster.CallNode{cartNode()}, false)}
	// The Figure 5 request: front-end fans out to Cart and Catalogue
	// branches; either can become the critical path.
	getCatalogue := &cluster.RequestType{
		Name: ReqGetCatalogue,
		Root: fe([]*cluster.CallNode{cartNode(), catalogueNode()}, true),
	}
	browse := &cluster.RequestType{Name: ReqBrowse, Root: fe([]*cluster.CallNode{catalogueNode()}, false)}
	placeOrder := &cluster.RequestType{
		Name: ReqPlaceOrder,
		Root: fe([]*cluster.CallNode{{
			Service: Orders,
			ReqWork: ln(lightCPU),
			ResWork: ln(lightCPU),
			Children: []*cluster.CallNode{
				{Service: Payment, ReqWork: ln(lightCPU)},
				{Service: User, ReqWork: ln(lightCPU), Children: []*cluster.CallNode{{Service: UserDB, ReqWork: ln(lightCPU)}}},
				cartNode(),
				{Service: Shipping, ReqWork: ln(lightCPU), Children: []*cluster.CallNode{{Service: QueueMaster, ReqWork: ln(lightCPU)}}},
				{Service: OrdersDB, ReqWork: ln(lightCPU)},
			},
		}}, false),
	}

	return cluster.App{
		Name: "sock-shop",
		Services: []cluster.ServiceSpec{
			{Name: FrontEnd, Replicas: 1, Cores: 8, Overhead: asyncOverhead},
			{Name: Cart, Replicas: 1, Cores: cfg.CartCores, ThreadPool: cfg.CartThreads, Overhead: threadedOverhead},
			{Name: CartDB, Replicas: 1, Cores: 24, Overhead: dbOverhead},
			{Name: Catalogue, Replicas: 1, Cores: 4, DBPool: cfg.CatalogueConns, Overhead: asyncOverhead},
			{Name: CatalogueDB, Replicas: 1, Cores: 8, Overhead: dbOverhead},
			{Name: User, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: UserDB, Replicas: 1, Cores: 4, Overhead: dbOverhead},
			{Name: Orders, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: OrdersDB, Replicas: 1, Cores: 4, Overhead: dbOverhead},
			{Name: Shipping, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: QueueMaster, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: Payment, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
		},
		Mix: []cluster.WeightedRequest{
			{Type: getCart, Weight: getCartWeight},
			{Type: getCatalogue, Weight: getCatalogueWeight},
			{Type: browse, Weight: browseWeight},
			{Type: placeOrder, Weight: placeOrderWeight},
		},
	}
}

// CartOnlyMix returns a mix that sends only getCart requests — the
// configuration of the paper's section 5.2 experiments, which drive the
// Cart service in isolation.
func CartOnlyMix(app cluster.App) []cluster.WeightedRequest {
	for _, wr := range app.Mix {
		if wr.Type.Name == ReqGetCart {
			return []cluster.WeightedRequest{{Type: wr.Type, Weight: 1}}
		}
	}
	return app.Mix
}

// BrowseOnlyMix returns a mix that sends only browse (Catalogue)
// requests, driving the Catalogue DB connection pool in isolation.
func BrowseOnlyMix(app cluster.App) []cluster.WeightedRequest {
	for _, wr := range app.Mix {
		if wr.Type.Name == ReqBrowse {
			return []cluster.WeightedRequest{{Type: wr.Type, Weight: 1}}
		}
	}
	return app.Mix
}
