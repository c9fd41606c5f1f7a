// Package dist provides the sampling distributions used to model service
// demands, think times and payload sizes in the simulated microservice
// cluster. Every distribution draws from an externally supplied
// *rand.Rand so that the whole simulation remains deterministic for a
// given kernel seed.
//
// All samplers return time.Duration values and guarantee a non-negative
// result; a duration of zero is valid (e.g. a cache hit modelled as free).
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Distribution samples virtual-time durations.
type Distribution interface {
	// Sample draws one value using the provided random source.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the distribution's expected value.
	Mean() time.Duration
	// String returns a compact human-readable description.
	String() string
}

// Deterministic always returns a fixed value.
type Deterministic struct {
	Value time.Duration
}

// NewDeterministic returns a point-mass distribution at v (clamped to >= 0).
//
//soravet:allow deadcode (b) cross-package fixture: tests in cluster and fault build fixed demands with it
func NewDeterministic(v time.Duration) Deterministic {
	if v < 0 {
		v = 0
	}
	return Deterministic{Value: v}
}

// Sample implements Distribution.
func (d Deterministic) Sample(*rand.Rand) time.Duration { return d.Value }

// Mean implements Distribution.
func (d Deterministic) Mean() time.Duration { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("det(%v)", d.Value) }

// Exponential is the memoryless distribution with the given mean.
type Exponential struct {
	MeanValue time.Duration
}

// NewExponential returns an exponential distribution with mean m.
func NewExponential(m time.Duration) Exponential {
	if m < 0 {
		m = 0
	}
	return Exponential{MeanValue: m}
}

// Sample implements Distribution.
func (d Exponential) Sample(rng *rand.Rand) time.Duration {
	if d.MeanValue == 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(d.MeanValue))
}

// Mean implements Distribution.
func (d Exponential) Mean() time.Duration { return d.MeanValue }

func (d Exponential) String() string { return fmt.Sprintf("exp(%v)", d.MeanValue) }

// LogNormal models service demands with a right-skewed body, the typical
// shape of CPU demand in request processing. It is parameterised by its
// (linear-space) mean and the sigma of the underlying normal.
type LogNormal struct {
	MeanValue time.Duration
	Sigma     float64
	mu        float64
}

// NewLogNormal returns a log-normal distribution with the given linear-space
// mean and log-space standard deviation sigma. Sigma around 0.3-0.6 gives a
// moderately skewed demand; sigma 1.0+ is heavy-tailed.
func NewLogNormal(mean time.Duration, sigma float64) LogNormal {
	if mean < 0 {
		mean = 0
	}
	if sigma < 0 {
		sigma = 0
	}
	d := LogNormal{MeanValue: mean, Sigma: sigma}
	if mean > 0 {
		// E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
		d.mu = math.Log(float64(mean)) - sigma*sigma/2
	}
	return d
}

// Sample implements Distribution.
func (d LogNormal) Sample(rng *rand.Rand) time.Duration {
	if d.MeanValue == 0 {
		return 0
	}
	if d.Sigma == 0 {
		return d.MeanValue
	}
	x := math.Exp(d.mu + d.Sigma*rng.NormFloat64())
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(x)
}

// Mean implements Distribution.
func (d LogNormal) Mean() time.Duration { return d.MeanValue }

func (d LogNormal) String() string {
	return fmt.Sprintf("lognormal(mean=%v,sigma=%.2f)", d.MeanValue, d.Sigma)
}

// Verify interface compliance at compile time.
var (
	_ Distribution = Deterministic{}
	_ Distribution = Exponential{}
	_ Distribution = LogNormal{}
)
