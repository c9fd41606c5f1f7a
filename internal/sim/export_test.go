package sim

// Test hooks for the external sim_test package: the partition tests run
// the same operation streams at several near horizons and watch which
// half of the queue each timer lands in.

// NearHorizon is the default split between the near and far heaps.
const NearHorizon = nearHorizon

// SetNearHorizon moves k's near/far split to h. Firing order does not
// depend on the split, so tests may use any value, including 0 (every
// timer far) and math.MaxInt64 (every timer near).
func SetNearHorizon(k *Kernel, h Time) { k.horizon = h }

// QueueSizes returns how many timers k's near and far heaps hold.
func QueueSizes(k *Kernel) (near, far int) { return len(k.near), len(k.far) }

// InFar reports whether a pending timer sits in its kernel's far heap.
func InFar(t *Timer) bool { return t.far }
