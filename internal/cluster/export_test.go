package cluster

// Hooks for the external test package (cluster_test), whose tests drive
// the real topologies; those import this package, so only an external
// test can use them.

// TwoTier is the minimal frontend -> backend test app.
var TwoTier = twoTier

// CallPool is one pooled call-record type's lifetime allocation count
// and current free-list length.
type CallPool struct {
	Name       string
	Made, Free int
}

// CallPools reports the directCall, callState and attempt pools.
func (c *Cluster) CallPools() []CallPool {
	return []CallPool{
		{"directCall", c.directMade, len(c.directFree)},
		{"callState", c.callMade, len(c.callFree)},
		{"attempt", c.attemptMade, len(c.attemptFree)},
	}
}
