package cluster

import (
	"fmt"

	"sora/internal/telemetry"
)

// This file contains the runtime reconfiguration surface: the hardware
// knobs a Kubernetes-style autoscaler turns (CPU limits, replica counts)
// and the soft-resource knobs Sora's Concurrency Adapter turns (thread
// pools, DB connection pools, client connection pools). All changes take
// effect at the current virtual instant; pool growth immediately admits
// queued work, pool shrinkage drains naturally (in-flight slots are never
// revoked, matching how JMX/ClientPool reconfiguration behaves on live
// servers).

// SetCores vertically scales the per-pod CPU limit of a service.
func (c *Cluster) SetCores(service string, cores float64) error {
	svc, err := c.Service(service)
	if err != nil {
		return err
	}
	if cores <= 0 {
		return fmt.Errorf("cluster: SetCores(%q, %g): cores must be positive", service, cores)
	}
	if c.tel != nil {
		c.tel.Publish(c.k.Now(), "cluster.reconfig",
			telemetry.String("service", service),
			telemetry.String("knob", "cores"),
			telemetry.Float("from", svc.spec.Cores),
			telemetry.Float("to", cores))
	}
	svc.spec.Cores = cores
	for _, in := range svc.instances {
		// Route through the per-pod fault-injection degradation factor
		// so a vertical scale never silently clears a slow-node fault.
		in.applyCores()
	}
	return nil
}

// SetReplicas horizontally scales a service to n pods. Scale-up adds
// fresh pods configured with the service's current spec; scale-down
// marks the newest pods draining — they accept no new requests and are
// reaped once idle.
func (c *Cluster) SetReplicas(service string, n int) error {
	svc, err := c.Service(service)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("cluster: SetReplicas(%q, %d): need at least 1 replica", service, n)
	}
	svc.spec.Replicas = n
	current := svc.Replicas()
	if c.tel != nil && n != current {
		c.tel.Publish(c.k.Now(), "cluster.reconfig",
			telemetry.String("service", service),
			telemetry.String("knob", "replicas"),
			telemetry.Int("from", current),
			telemetry.Int("to", n))
	}
	switch {
	case n > current:
		// Un-drain pods first (cheapest scale-up), then add new pods.
		for _, in := range svc.instances {
			if current == n {
				break
			}
			if in.draining {
				in.draining = false
				current++
			}
		}
		for current < n {
			svc.addInstance()
			current++
		}
	case n < current:
		// Drain from the end (newest pods first).
		for i := len(svc.instances) - 1; i >= 0 && current > n; i-- {
			in := svc.instances[i]
			if !in.draining {
				in.draining = true
				current--
			}
		}
		svc.reap()
	}
	// Draining flips (and un-drains) change membership truth; new pods
	// reach the view on their own once ready. One recompute (at +lag
	// with a control plane) covers the whole batch.
	svc.noteChange()
	return nil
}

// SetPoolSize reconfigures a soft resource at runtime. The size applies
// per pod (matching how the paper configures Tomcat/JDBC/ClientPool
// parameters per instance); zero means unlimited for thread and DB pools.
func (c *Cluster) SetPoolSize(ref ResourceRef, size int) error {
	svc, err := c.Service(ref.Service)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("cluster: SetPoolSize(%v, %d): negative size", ref, size)
	}
	if c.tel != nil {
		if from, err := c.PoolSize(ref); err == nil {
			c.tel.Publish(c.k.Now(), "cluster.reconfig",
				telemetry.String("service", ref.Service),
				telemetry.String("knob", "pool"),
				telemetry.String("resource", ref.String()),
				telemetry.Int("from", from),
				telemetry.Int("to", size))
		}
	}
	switch ref.Kind {
	case PoolThreads:
		svc.spec.ThreadPool = size
		for _, in := range svc.instances {
			in.setThreadCap(size)
		}
	case PoolDBConns:
		svc.spec.DBPool = size
		for _, in := range svc.instances {
			in.db.setCap(size)
		}
	case PoolClientConns:
		if ref.Target == "" {
			return fmt.Errorf("cluster: SetPoolSize(%v): client pool needs a target", ref)
		}
		target, err := c.Service(ref.Target)
		if err != nil {
			return err
		}
		if svc.spec.ClientPools == nil {
			svc.spec.ClientPools = make(map[string]int)
		}
		svc.spec.ClientPools[ref.Target] = size
		for _, in := range svc.instances {
			in.setClientPool(target.id, size)
		}
	default:
		return fmt.Errorf("cluster: SetPoolSize(%v): unknown pool kind", ref)
	}
	return nil
}

// PoolSize returns the configured per-pod size of a soft resource
// (0 = unlimited).
func (c *Cluster) PoolSize(ref ResourceRef) (int, error) {
	svc, err := c.Service(ref.Service)
	if err != nil {
		return 0, err
	}
	switch ref.Kind {
	case PoolThreads:
		return svc.spec.ThreadPool, nil
	case PoolDBConns:
		return svc.spec.DBPool, nil
	case PoolClientConns:
		return svc.spec.ClientPools[ref.Target], nil
	default:
		return 0, fmt.Errorf("cluster: PoolSize(%v): unknown pool kind", ref)
	}
}

// PoolInUse returns the number of busy slots of a soft resource summed
// across pods — the instantaneous concurrency the SCG model samples.
func (c *Cluster) PoolInUse(ref ResourceRef) (int, error) {
	svc, err := c.Service(ref.Service)
	if err != nil {
		return 0, err
	}
	switch ref.Kind {
	case PoolThreads:
		return svc.Concurrency(), nil
	case PoolDBConns:
		return svc.DBConnsInUse(), nil
	case PoolClientConns:
		return svc.ClientConnsInUse(ref.Target), nil
	default:
		return 0, fmt.Errorf("cluster: PoolInUse(%v): unknown pool kind", ref)
	}
}
