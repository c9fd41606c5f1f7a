package core

import (
	"sora/internal/cluster"
	"sora/internal/sim"
	"sora/internal/telemetry"
)

// This file holds the Concurrency Adapter policy shared by the
// independent Controller and the UnifiedController, plus the decision
// audit it publishes: every evaluation emits exactly one
// controller.decision telemetry event carrying the model's full inputs
// (knee location, sampled concurrency ranges, goodput fraction,
// behind-pool utilization) and the chosen outcome, whether or not a
// reconfiguration was applied.

// Decision reason strings recorded in controller.decision events. The
// "hold-*" reasons explain why an evaluation applied nothing; the rest
// name the policy branch that produced the applied target.
const (
	reasonApplyKnee    = "apply-knee"          // interior knee applied directly
	reasonProbeDown    = "probe-down"          // saturated behind-pool capacity: probe downward
	reasonExploreUp    = "explore-up"          // truncated curve with headroom: grow
	reasonGrowUnder    = "grow-underallocated" // pinned pool, missed deadlines: grow
	reasonShrinkFloor  = "shrink-floor"        // shrink floored at demonstrated demand
	reasonHoldDebounce = "hold-debounce"       // shrink awaiting consecutive confirmation
	reasonHoldSteady   = "hold-steady"         // clamped target equals current setting
	reasonHoldHyst     = "hold-hysteresis"     // nudge within the hysteresis band
	reasonHoldPerPod   = "hold-per-pod"        // per-pod rounding yields the current size
	reasonCoordinated  = "coordinated-rescale" // unified controller's joint hardware+pool move
)

// runAdapter executes one Concurrency Adapter policy evaluation against
// the cluster: it turns the model's recommendation into a total-
// concurrency target (see the policy comment on Controller.adapt),
// debounces shrinks through shrinkStreak, clamps to the managed bounds,
// applies hysteresis (hysteresis <= 0 disables the band — the unified
// controller runs without one), and reconfigures the pool if a change
// survives. It returns the applied AdaptationEvent (applied=false when
// the evaluation held), and publishes exactly one controller.decision
// event per call when telemetry is enabled.
func runAdapter(c *cluster.Cluster, now sim.Time, rec Recommendation, managed []ManagedResource, shrinkStreak *int, afterHWChange bool, hysteresis float64) (AdaptationEvent, bool, error) {
	perPod, err := c.PoolSize(rec.Resource)
	if err != nil {
		return AdaptationEvent{}, false, err
	}
	replicas := 1
	if svc, err := c.Service(rec.Resource.Service); err == nil && svc.Replicas() > 1 {
		replicas = svc.Replicas()
	}
	current := perPod * replicas

	target := rec.OptimalConcurrency
	saturated := current > 0 && rec.MaxQWindow >= 0.9*float64(current)
	kneeAtEdge := rec.Knee.Fallback ||
		(rec.MaxQWindow > 0 && rec.Knee.X >= 0.85*rec.MaxQWindow)
	underPressure := saturated || rec.GoodFrac < 0.9
	behindBound := rec.BehindUtil >= behindUtilHigh
	reason := reasonApplyKnee
	switch {
	case kneeAtEdge && underPressure && behindBound && saturated:
		// The pool is pinned, deadlines suffer, and the bottleneck behind
		// the pool is already saturated: more concurrency only adds
		// thrash there — probe downward instead.
		target = int(float64(current) * probeDownFactor)
		reason = reasonProbeDown
	case kneeAtEdge && underPressure && !behindBound:
		// Truncated curve with headroom behind the pool: the optimum may
		// lie beyond the current allocation — grow gradually.
		if grown := int(float64(current)*exploreFactor) + 1; grown > target {
			target = grown
		}
		reason = reasonExploreUp
	case saturated && rec.GoodFrac < 0.9 && target >= current && !behindBound:
		// Pool pinned and deadlines missed with no interior evidence of
		// over-allocation: under-allocation — grow.
		if grown := int(float64(current)*exploreFactor) + 1; grown > target {
			target = grown
		}
		reason = reasonGrowUnder
	default:
		// Interior knee confirmed by samples beyond it: apply it, but
		// never shrink below the recent demonstrated demand.
		if target < current {
			if floor := int(float64(shrinkFloorFraction*rec.MaxQRetention) + 0.999); target < floor {
				target = floor
				reason = reasonShrinkFloor
			}
		}
	}
	// Debounce shrinks: require consecutive confirmations.
	hold := ""
	if target < current {
		*shrinkStreak++
		if *shrinkStreak < shrinkConfirm && !afterHWChange {
			hold = reasonHoldDebounce
		}
	} else {
		*shrinkStreak = 0
	}
	newPerPod := perPod
	if hold == "" {
		// Re-clamp to the managed resource bounds after policy adjustments.
		for _, res := range managed {
			if res.Ref == rec.Resource {
				target = res.Clamp(target)
				break
			}
		}
		if target == current {
			hold = reasonHoldSteady
		}
	}
	// Hysteresis: ignore small nudges unless hardware just changed (a
	// scale event invalidates the old optimum, so always follow through).
	if hold == "" && !afterHWChange && hysteresis > 0 && current > 0 {
		lo := float64(current) * (1 - hysteresis)
		hi := float64(current) * (1 + hysteresis)
		if v := float64(target); v >= lo && v <= hi {
			hold = reasonHoldHyst
		}
	}
	if hold == "" {
		newPerPod = (target + replicas - 1) / replicas
		if newPerPod < 1 {
			newPerPod = 1
		}
		if newPerPod == perPod {
			hold = reasonHoldPerPod
		}
	}
	applied := hold == ""
	outcome := reason
	to := current
	if applied {
		to = newPerPod * replicas
	} else {
		outcome = hold
	}
	if tel := c.Telemetry(); tel != nil {
		tel.Publish(now, "controller.decision",
			telemetry.String("resource", rec.Resource.String()),
			telemetry.String("critical", rec.CriticalService),
			telemetry.String("reason", outcome),
			telemetry.String("branch", reason),
			telemetry.Bool("applied", applied),
			telemetry.Int("current", current),
			telemetry.Int("target", target),
			telemetry.Int("to", to),
			telemetry.Int("delta", to-current),
			telemetry.Int("opt", rec.OptimalConcurrency),
			telemetry.Dur("threshold_ms", rec.Threshold),
			telemetry.Float("knee_x", rec.Knee.X),
			telemetry.Bool("knee_fallback", rec.Knee.Fallback),
			telemetry.Int("pairs", rec.Pairs),
			telemetry.Float("good_frac", rec.GoodFrac),
			telemetry.Float("max_q_window", rec.MaxQWindow),
			telemetry.Float("max_q_retention", rec.MaxQRetention),
			telemetry.Float("behind_util", rec.BehindUtil),
			telemetry.Bool("after_hw_change", afterHWChange),
		)
	}
	if !applied {
		return AdaptationEvent{}, false, nil
	}
	if err := c.SetPoolSize(rec.Resource, newPerPod); err != nil {
		return AdaptationEvent{}, false, err
	}
	return AdaptationEvent{
		At:              now,
		Resource:        rec.Resource,
		From:            current,
		To:              newPerPod * replicas,
		CriticalService: rec.CriticalService,
		Threshold:       rec.Threshold,
		Pairs:           rec.Pairs,
	}, true, nil
}

// publishControllerError records a failed control step (model
// recommendation or pool application) on the telemetry bus.
func publishControllerError(c *cluster.Cluster, now sim.Time, stage string, err error) {
	if tel := c.Telemetry(); tel != nil {
		tel.Publish(now, "controller.error",
			telemetry.String("stage", stage),
			telemetry.String("error", err.Error()))
	}
}
