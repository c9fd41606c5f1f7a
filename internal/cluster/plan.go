package cluster

import (
	"fmt"

	"sora/internal/dist"
	"sora/internal/metrics"
)

// planNode is one service visit of a compiled request type: its
// CallNode with every name resolved against the cluster, so the request
// path indexes services, client pools, edges and the type's completion
// log instead of looking a name up. A type compiles into one []planNode
// in which every node's children are one contiguous range.
type planNode struct {
	svc *Service
	// sid is the service's id: its position in Cluster.svcs and in the
	// trace name table, and the slot of its client pool in a caller's
	// Instance.client.
	sid int32
	// edge is the slot of the caller→this edge in Cluster.edgeTab; 0 at
	// the root, which has no caller.
	edge     int32
	req, res dist.Distribution
	kids     []planNode
	parallel bool

	// rt and log are set at the root only: the request type and its
	// completion log.
	rt  *RequestType
	log *metrics.CompletionLog
}

// plan returns the root of rt's compiled plan, compiling rt on its
// first use by this cluster. The compile is the one walk that checks a
// request type: every node must name a deployed service.
func (c *Cluster) plan(rt *RequestType) (*planNode, error) {
	if rt == nil || rt.Root == nil {
		return nil, fmt.Errorf("cluster: mix contains nil request type")
	}
	for _, p := range c.plans {
		if p.rt == rt {
			return p, nil
		}
	}
	n, err := c.countNodes(rt, rt.Root)
	if err != nil {
		return nil, err
	}
	nodes := make([]planNode, n)
	root := &nodes[0]
	c.fillNode(root, rt.Root, -1, nodes[1:])
	root.rt = rt
	// Types sharing a name share a completion log, as they share the
	// name in every trace.
	for _, p := range c.plans {
		if p.rt.Name == rt.Name {
			root.log = p.log
			break
		}
	}
	if root.log == nil {
		root.log = &metrics.CompletionLog{}
	}
	c.plans = append(c.plans, root)
	return root, nil
}

// countNodes counts the nodes of the tree under n, checking that each
// names a deployed service.
func (c *Cluster) countNodes(rt *RequestType, n *CallNode) (int, error) {
	if n == nil {
		return 0, fmt.Errorf("cluster: request type %q has a nil call node", rt.Name)
	}
	if _, ok := c.services[n.Service]; !ok {
		return 0, fmt.Errorf("cluster: request type %q calls unknown service %q", rt.Name, n.Service)
	}
	total := 1
	for _, k := range n.Children {
		m, err := c.countNodes(rt, k)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// fillNode compiles n into dst, called by the service with id caller
// (-1 at the root). free is the unfilled rest of the plan: dst's
// children take its first len(n.Children) nodes and their subtrees the
// nodes after those. It returns what is left of free.
func (c *Cluster) fillNode(dst *planNode, n *CallNode, caller int32, free []planNode) []planNode {
	svc := c.services[n.Service]
	*dst = planNode{svc: svc, sid: svc.id, req: n.ReqWork, res: n.ResWork, parallel: n.Parallel}
	if caller >= 0 {
		dst.edge = caller*int32(len(c.svcs)) + svc.id
	}
	dst.kids, free = free[:len(n.Children):len(n.Children)], free[len(n.Children):]
	for i, k := range n.Children {
		free = c.fillNode(&dst.kids[i], k, svc.id, free)
	}
	return free
}
