package cluster

import (
	"strings"
	"time"

	"sora/internal/node"
	"sora/internal/telemetry"
)

// This file wires the internal/node control plane into the cluster.
// Dispatch itself does not depend on it: every service routes through
// its endpoint view with one balancer (Service.pick). What the control
// plane changes is how pods come and go and when the view learns of it.
// Without one (Options.ControlPlane nil) pods exist the instant a
// service scales, every pod serves immediately, and each membership
// change is applied to the view synchronously — no timer, no event, so
// artifacts are byte-identical with older runs. With a control plane:
//
//   - every pod (initial deployment, scale-up, crash replacement) is a
//     node.Fleet pod: it reserves cores on a worker node chosen by the
//     scheduling policy and cold-starts (scheduled → pulling → warming
//     → ready) before it may serve;
//   - the endpoint view trails the truth by Config.EndpointLag: a pod
//     becoming ready, crashing, draining or terminating only
//     (dis)appears from dispatch one lag later, so requests keep
//     landing on dead endpoints (connection refused → the caller's
//     retry/breaker policy) until propagation catches up, and each
//     applied change is published as endpoints.update;
//   - Config.LB selects the balancer (round-robin / least-loaded /
//     power-of-two-choices).

// ControlPlane binds a node fleet to the cluster: placement, cold
// start and endpoint propagation (Service.pick balances over the views
// it maintains). Obtain it from Cluster.ControlPlane; it is nil unless
// the cluster was built with Options.ControlPlane.
type ControlPlane struct {
	c     *Cluster
	fleet *node.Fleet
	lag   time.Duration

	// pods maps fleet pods back to their instances for node-level fault
	// handling (iteration is over the fleet's returned slices, never the
	// map, so ordering stays deterministic).
	pods map[*node.Pod]*Instance

	// stalled freezes endpoint propagation (the KindEndpointStall
	// fault): membership changes mark their service stale and are
	// applied in one batch when the stall lifts.
	stalled bool
}

func newControlPlane(c *Cluster, cfg node.Config) (*ControlPlane, error) {
	fleet, err := node.NewFleet(c.k, cfg, c.tel)
	if err != nil {
		return nil, err
	}
	return &ControlPlane{
		c:     c,
		fleet: fleet,
		lag:   cfg.EndpointLag,
		pods:  make(map[*node.Pod]*Instance),
	}, nil
}

// ControlPlane returns the cluster's control plane, or nil when the
// cluster was built without one (instant placement, synchronous
// endpoint views).
func (c *Cluster) ControlPlane() *ControlPlane { return c.cp }

// Fleet returns the underlying node fleet.
func (cp *ControlPlane) Fleet() *node.Fleet { return cp.fleet }

// NodeCount returns the worker-node count.
func (cp *ControlPlane) NodeCount() int { return cp.fleet.NodeCount() }

// launch routes a new instance through the scheduler and cold start:
// the pod serves nothing until it is ready AND the ready transition has
// propagated into its service's endpoint view.
func (cp *ControlPlane) launch(in *Instance) {
	in.ready = false
	p := cp.fleet.Launch(in.svc.name, in.id, in.svc.spec.Cores, func(*node.Pod) {
		in.ready = true
		cp.noteChange(in.svc)
	})
	in.pod = p
	cp.pods[p] = in
}

// terminate finalizes a reaped (drained-and-idle) instance: the pod's
// reservation is released and stale routes to it are refused like any
// other dead endpoint until the removal propagates.
func (cp *ControlPlane) terminate(in *Instance) {
	in.down = true
	if in.pod != nil {
		delete(cp.pods, in.pod)
		cp.fleet.Forget(in.pod)
		in.pod = nil
	}
	cp.noteChange(in.svc)
}

// noteChange schedules an endpoint-view recompute for svc one
// propagation lag from now. Each membership change schedules its own
// update — the view applied at t+lag reflects the truth at t+lag, so
// every change is visible exactly lag after it happened. During a
// propagation stall changes only mark the service stale.
func (cp *ControlPlane) noteChange(svc *Service) {
	if cp.stalled {
		svc.epStale = true
		return
	}
	cp.c.k.Schedule(cp.lag, func() { cp.applyEndpoints(svc) })
}

// applyEndpoints recomputes one service's endpoint view from current
// truth and publishes endpoints.update when it actually changed.
func (cp *ControlPlane) applyEndpoints(svc *Service) {
	if cp.stalled {
		svc.epStale = true
		return
	}
	if !svc.refreshEndpoints() {
		return
	}
	if tel := cp.c.tel; tel != nil {
		ids := make([]string, len(svc.endpoints))
		for i, in := range svc.endpoints {
			ids[i] = in.id
		}
		tel.Publish(cp.c.k.Now(), "endpoints.update",
			telemetry.String("service", svc.name),
			telemetry.Int("count", len(svc.endpoints)),
			telemetry.String("pods", strings.Join(ids, ",")))
	}
}

// CrashNode fails worker node i: every resident pod dies mid-whatever
// (queued work refused, in-flight responses lost), and for each victim
// a replacement pod is launched — scheduled on the surviving nodes,
// cold-started, and routed to only after endpoint propagation. The
// node accepts no placements until RestoreNode.
func (cp *ControlPlane) CrashNode(i int) {
	for _, p := range cp.fleet.CrashNode(i) {
		in := cp.pods[p]
		if in == nil {
			continue
		}
		delete(cp.pods, p)
		in.pod = nil
		svc := in.svc
		in.Crash()
		svc.removeInstance(in)
		cp.noteChange(svc)
		// The ReplicaSet notices the lost pod and recreates it (unless
		// the service is already at or above its declared replicas, e.g.
		// because it was scaling down anyway).
		if svc.Replicas() < svc.spec.Replicas {
			svc.addInstance()
		}
	}
}

// RestoreNode brings a crashed node back empty. Pods waiting in the
// scheduler's pending queue may place onto it immediately.
func (cp *ControlPlane) RestoreNode(i int) { cp.fleet.RestoreNode(i) }

// DrainNode cordons node i and evicts its pods gracefully: each
// resident pod starts draining (serving its admitted work, receiving
// nothing new once the change propagates) while a replacement is
// launched on the remaining nodes. The node takes no new pods until
// UncordonNode.
func (cp *ControlPlane) DrainNode(i int) {
	for _, p := range cp.fleet.DrainNode(i) {
		in := cp.pods[p]
		if in == nil || in.draining {
			continue
		}
		in.draining = true
		cp.noteChange(in.svc)
		in.svc.addInstance()
		if in.idle() {
			in.svc.reap()
		}
	}
}

// UncordonNode reopens a drained node for scheduling.
func (cp *ControlPlane) UncordonNode(i int) { cp.fleet.UncordonNode(i) }

// SetEndpointStall freezes (true) or resumes (false) endpoint
// propagation cluster-wide — the kube-proxy/endpoint-controller outage
// fault. While stalled, routing keeps using the last propagated views;
// lifting the stall applies every missed change in service declaration
// order.
func (cp *ControlPlane) SetEndpointStall(on bool) {
	cp.stalled = on
	if on {
		return
	}
	for _, name := range cp.c.order {
		svc := cp.c.services[name]
		if svc.epStale {
			svc.epStale = false
			cp.applyEndpoints(svc)
		}
	}
}

// Stalled reports whether endpoint propagation is frozen.
func (cp *ControlPlane) Stalled() bool { return cp.stalled }

// placement renders one service's pod→node assignment, in instance
// creation order: "cart-0@node-1,cart-2@node-0", with "-" for pods the
// scheduler has not placed yet. soradiff compares this string across
// runs to find the first window where placement diverges.
func (cp *ControlPlane) placement(svc *Service) string {
	var b strings.Builder
	for i, in := range svc.instances {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(in.id)
		b.WriteByte('@')
		if in.pod != nil {
			b.WriteString(in.pod.NodeName())
		} else {
			b.WriteByte('-')
		}
	}
	return b.String()
}
