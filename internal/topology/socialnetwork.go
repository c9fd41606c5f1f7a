package topology

import (
	"time"

	"sora/internal/cluster"
	"sora/internal/dist"
)

// Service names (Social Network). The DeathStarBench deployment runs 36
// containers; the ones that matter for the paper's experiments are the
// read-home-timeline path (nginx -> home-timeline -> post-storage ->
// mongo/memcached, plus social-graph) and the compose-post fan-out. The
// remaining containers are the per-service cache/database sidecars, which
// are modelled as explicit services here too.
const (
	SNFrontEnd        = "nginx"
	HomeTimeline      = "home-timeline"
	UserTimeline      = "user-timeline"
	PostStorage       = "post-storage"
	PostStorageMongo  = "post-storage-mongo"
	PostStorageMemc   = "post-storage-memcached"
	SocialGraph       = "social-graph"
	SocialGraphMongo  = "social-graph-mongo"
	SocialGraphRedis  = "social-graph-redis"
	ComposePost       = "compose-post"
	UniqueID          = "unique-id"
	TextService       = "text"
	URLShorten        = "url-shorten"
	UserTag           = "user-tag"
	MediaService      = "media"
	UserService       = "user-sn"
	UserMongo         = "user-mongo"
	UserMemc          = "user-memcached"
	WriteHomeTimeline = "write-home-timeline"
	WriteUserTimeline = "write-user-timeline"
	UserTimelineMongo = "user-timeline-mongo"
	UserTimelineRedis = "user-timeline-redis"
	HomeTimelineRedis = "home-timeline-redis"
	SearchService     = "search"
	SearchIndex0      = "index-0"
	SearchIndex1      = "index-1"
	SearchIndex2      = "index-2"
)

// Request type names (Social Network).
const (
	ReqReadHomeTimeline      = "readHomeTimeline"
	ReqReadHomeTimelineHeavy = "readHomeTimelineHeavy"
	ReqReadUserTimeline      = "readUserTimeline"
	ReqComposePost           = "composePost"
	ReqSearch                = "search"
)

// SocialNetworkConfig carries the knobs the experiments sweep.
type SocialNetworkConfig struct {
	// PostStorageConns is the Home-Timeline ClientPool size per pod:
	// outstanding RPCs to Post Storage (the paper's third case study).
	PostStorageConns int
	// PostStorageCores is the per-pod CPU limit of Post Storage.
	PostStorageCores float64
	// PostStorageReplicas is Post Storage's initial pod count.
	PostStorageReplicas int
}

// DefaultSocialNetwork returns the baseline: 10 connections to a 2-core
// single Post Storage pod with light reads — the optimal operating point
// of Figure 3(e).
func DefaultSocialNetwork() SocialNetworkConfig {
	return SocialNetworkConfig{
		PostStorageConns:    10,
		PostStorageCores:    2,
		PostStorageReplicas: 1,
	}
}

// Calibrated demands for Social Network. A light read touches 2 posts, a
// heavy read 10 (the paper's section 2.3 drift experiment); each post
// costs one sequential Mongo fetch plus per-post marshalling CPU, so the
// blocked share of a Post Storage visit grows with post count — which is
// exactly why the optimal connection count shifts from 10 to 30.
const (
	snFEReqCPU     = 250 * time.Microsecond
	snFEResCPU     = 150 * time.Microsecond
	htReqCPU       = 500 * time.Microsecond
	htResCPU       = 400 * time.Microsecond
	psReqCPU       = 300 * time.Microsecond
	psPerPostCPU   = 150 * time.Microsecond
	mongoFetchCPU  = 1200 * time.Microsecond
	memcLookupCPU  = 80 * time.Microsecond
	sgLookupCPU    = 600 * time.Microsecond
	redisCPU       = 60 * time.Microsecond
	composeStepCPU = 700 * time.Microsecond
	searchStepCPU  = 900 * time.Microsecond
	LightReadPosts = 2
	HeavyReadPosts = 10
)

// postStorageNode builds the Post Storage visit for a read touching the
// given number of posts: a memcached check, then one sequential Mongo
// fetch per post, with per-post response marshalling.
func postStorageNode(posts int) *cluster.CallNode {
	ln := func(mean time.Duration) dist.Distribution {
		return dist.NewLogNormal(mean, demandSigma)
	}
	children := []*cluster.CallNode{{Service: PostStorageMemc, ReqWork: ln(memcLookupCPU)}}
	for i := 0; i < posts; i++ {
		children = append(children, &cluster.CallNode{Service: PostStorageMongo, ReqWork: ln(mongoFetchCPU)})
	}
	return &cluster.CallNode{
		Service:  PostStorage,
		ReqWork:  ln(psReqCPU),
		ResWork:  ln(time.Duration(posts) * psPerPostCPU),
		Children: children,
	}
}

// ReadHomeTimelineType builds the read-home-timeline request touching the
// given number of posts: nginx -> home-timeline, which consults the
// social graph (redis-backed) in parallel with fetching posts from Post
// Storage.
func ReadHomeTimelineType(name string, posts int) *cluster.RequestType {
	ln := func(mean time.Duration) dist.Distribution {
		return dist.NewLogNormal(mean, demandSigma)
	}
	return &cluster.RequestType{
		Name: name,
		Root: &cluster.CallNode{
			Service: SNFrontEnd,
			ReqWork: ln(snFEReqCPU),
			ResWork: ln(snFEResCPU),
			Children: []*cluster.CallNode{{
				Service:  HomeTimeline,
				ReqWork:  ln(htReqCPU),
				ResWork:  ln(htResCPU),
				Parallel: true,
				Children: []*cluster.CallNode{
					{Service: HomeTimelineRedis, ReqWork: ln(redisCPU)},
					postStorageNode(posts),
					{
						Service: SocialGraph,
						ReqWork: ln(sgLookupCPU),
						Children: []*cluster.CallNode{
							{Service: SocialGraphRedis, ReqWork: ln(redisCPU)},
						},
					},
				},
			}},
		},
	}
}

// SocialNetwork builds the Social Network application with the given
// configuration.
func SocialNetwork(cfg SocialNetworkConfig) cluster.App {
	if cfg.PostStorageCores <= 0 {
		cfg.PostStorageCores = 2
	}
	if cfg.PostStorageReplicas <= 0 {
		cfg.PostStorageReplicas = 1
	}
	ln := func(mean time.Duration) dist.Distribution {
		return dist.NewLogNormal(mean, demandSigma)
	}

	readLight := ReadHomeTimelineType(ReqReadHomeTimeline, LightReadPosts)

	readUserTimeline := &cluster.RequestType{
		Name: ReqReadUserTimeline,
		Root: &cluster.CallNode{
			Service: SNFrontEnd,
			ReqWork: ln(snFEReqCPU),
			ResWork: ln(snFEResCPU),
			Children: []*cluster.CallNode{{
				Service: UserTimeline,
				ReqWork: ln(htReqCPU),
				ResWork: ln(htResCPU),
				Children: []*cluster.CallNode{
					{Service: UserTimelineRedis, ReqWork: ln(redisCPU)},
					{Service: UserTimelineMongo, ReqWork: ln(mongoFetchCPU)},
					postStorageNode(LightReadPosts),
				},
			}},
		},
	}

	composePost := &cluster.RequestType{
		Name: ReqComposePost,
		Root: &cluster.CallNode{
			Service: SNFrontEnd,
			ReqWork: ln(snFEReqCPU),
			ResWork: ln(snFEResCPU),
			Children: []*cluster.CallNode{{
				Service:  ComposePost,
				ReqWork:  ln(composeStepCPU),
				ResWork:  ln(composeStepCPU),
				Parallel: true,
				Children: []*cluster.CallNode{
					{Service: UniqueID, ReqWork: ln(composeStepCPU / 2)},
					{Service: TextService, ReqWork: ln(composeStepCPU), Children: []*cluster.CallNode{
						{Service: URLShorten, ReqWork: ln(composeStepCPU / 2)},
						{Service: UserTag, ReqWork: ln(composeStepCPU / 2)},
					}},
					{Service: MediaService, ReqWork: ln(composeStepCPU / 2)},
					{Service: UserService, ReqWork: ln(composeStepCPU / 2), Children: []*cluster.CallNode{
						{Service: UserMemc, ReqWork: ln(memcLookupCPU)},
						{Service: UserMongo, ReqWork: ln(mongoFetchCPU)},
					}},
					{Service: WriteHomeTimeline, ReqWork: ln(composeStepCPU), Children: []*cluster.CallNode{
						{Service: HomeTimelineRedis, ReqWork: ln(redisCPU)},
						{Service: SocialGraph, ReqWork: ln(sgLookupCPU), Children: []*cluster.CallNode{
							{Service: SocialGraphRedis, ReqWork: ln(redisCPU)},
						}},
					}},
					{Service: WriteUserTimeline, ReqWork: ln(composeStepCPU / 2), Children: []*cluster.CallNode{
						{Service: UserTimelineMongo, ReqWork: ln(mongoFetchCPU)},
					}},
				},
			}},
		},
	}

	search := &cluster.RequestType{
		Name: ReqSearch,
		Root: &cluster.CallNode{
			Service: SNFrontEnd,
			ReqWork: ln(snFEReqCPU),
			ResWork: ln(snFEResCPU),
			Children: []*cluster.CallNode{{
				Service:  SearchService,
				ReqWork:  ln(searchStepCPU),
				ResWork:  ln(searchStepCPU / 2),
				Parallel: true,
				Children: []*cluster.CallNode{
					{Service: SearchIndex0, ReqWork: ln(searchStepCPU)},
					{Service: SearchIndex1, ReqWork: ln(searchStepCPU)},
					{Service: SearchIndex2, ReqWork: ln(searchStepCPU)},
				},
			}},
		},
	}

	mix := []cluster.WeightedRequest{
		{Type: readLight, Weight: 6},
		{Type: readUserTimeline, Weight: 2},
		{Type: composePost, Weight: 1},
		{Type: search, Weight: 0.5},
	}

	return cluster.App{
		Name: "social-network",
		Services: []cluster.ServiceSpec{
			{Name: SNFrontEnd, Replicas: 1, Cores: 8, Overhead: asyncOverhead},
			{Name: HomeTimeline, Replicas: 1, Cores: 4, Overhead: asyncOverhead, ClientPools: map[string]int{PostStorage: cfg.PostStorageConns}},
			{Name: UserTimeline, Replicas: 1, Cores: 2, Overhead: asyncOverhead, ClientPools: map[string]int{PostStorage: cfg.PostStorageConns}},
			{Name: PostStorage, Replicas: cfg.PostStorageReplicas, Cores: cfg.PostStorageCores, Overhead: threadedOverhead},
			{Name: PostStorageMongo, Replicas: 1, Cores: 32, Overhead: dbOverhead},
			{Name: PostStorageMemc, Replicas: 1, Cores: 2, Overhead: asyncOverhead},
			{Name: SocialGraph, Replicas: 1, Cores: 6, Overhead: lightSvcOverhead},
			{Name: SocialGraphMongo, Replicas: 1, Cores: 4, Overhead: dbOverhead},
			{Name: SocialGraphRedis, Replicas: 1, Cores: 2, Overhead: asyncOverhead},
			{Name: ComposePost, Replicas: 1, Cores: 4, Overhead: lightSvcOverhead},
			{Name: UniqueID, Replicas: 1, Cores: 1, Overhead: lightSvcOverhead},
			{Name: TextService, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: URLShorten, Replicas: 1, Cores: 1, Overhead: lightSvcOverhead},
			{Name: UserTag, Replicas: 1, Cores: 1, Overhead: lightSvcOverhead},
			{Name: MediaService, Replicas: 1, Cores: 1, Overhead: lightSvcOverhead},
			{Name: UserService, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: UserMongo, Replicas: 1, Cores: 4, Overhead: dbOverhead},
			{Name: UserMemc, Replicas: 1, Cores: 1, Overhead: asyncOverhead},
			{Name: WriteHomeTimeline, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: WriteUserTimeline, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: UserTimelineMongo, Replicas: 1, Cores: 4, Overhead: dbOverhead},
			{Name: UserTimelineRedis, Replicas: 1, Cores: 2, Overhead: asyncOverhead},
			{Name: HomeTimelineRedis, Replicas: 1, Cores: 2, Overhead: asyncOverhead},
			{Name: SearchService, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: SearchIndex0, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: SearchIndex1, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
			{Name: SearchIndex2, Replicas: 1, Cores: 2, Overhead: lightSvcOverhead},
		},
		Mix: mix,
	}
}

// HomeTimelineOnlyMix returns a mix sending only home-timeline reads
// (light or heavy), driving the Post Storage connection pool in
// isolation as in the paper's sections 5.1 and 5.3.
func HomeTimelineOnlyMix(heavy bool) []cluster.WeightedRequest {
	if heavy {
		return []cluster.WeightedRequest{{Type: ReadHomeTimelineType(ReqReadHomeTimelineHeavy, HeavyReadPosts), Weight: 1}}
	}
	return []cluster.WeightedRequest{{Type: ReadHomeTimelineType(ReqReadHomeTimeline, LightReadPosts), Weight: 1}}
}
