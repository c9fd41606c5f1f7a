package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(11, 17)) }

// sampleMean draws n samples and returns the empirical mean.
func sampleMean(d Distribution, n int) time.Duration {
	rng := newRNG()
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	return time.Duration(sum / float64(n))
}

// within asserts |got-want| <= tol*want.
func within(t *testing.T, name string, got, want time.Duration, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: got %v, want 0", name, got)
		}
		return
	}
	diff := math.Abs(float64(got) - float64(want))
	if diff > tol*float64(want) {
		t.Errorf("%s: empirical mean %v deviates from %v by more than %.0f%%", name, got, want, tol*100)
	}
}

func TestMeansConvergeToDeclaredMean(t *testing.T) {
	tests := []struct {
		name string
		d    Distribution
		tol  float64
	}{
		{"deterministic", NewDeterministic(10 * time.Millisecond), 0.0},
		{"exponential", NewExponential(5 * time.Millisecond), 0.05},
		{"lognormal", NewLogNormal(20*time.Millisecond, 0.5), 0.05},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			within(t, tt.name, sampleMean(tt.d, 200_000), tt.d.Mean(), tt.tol+1e-12)
		})
	}
}

func TestNonNegativeSamples(t *testing.T) {
	dists := []Distribution{
		NewDeterministic(-time.Second),
		NewExponential(time.Millisecond),
		NewLogNormal(time.Millisecond, 2.0),
	}
	rng := newRNG()
	for _, d := range dists {
		for i := 0; i < 10_000; i++ {
			if v := d.Sample(rng); v < 0 {
				t.Fatalf("%v produced negative sample %v", d, v)
			}
		}
	}
}

func TestZeroMeanDistributions(t *testing.T) {
	rng := newRNG()
	for _, d := range []Distribution{
		NewExponential(0),
		NewLogNormal(0, 0.5),
	} {
		for i := 0; i < 100; i++ {
			if v := d.Sample(rng); v != 0 {
				t.Errorf("%v with zero mean produced %v", d, v)
			}
		}
	}
}

func TestLogNormalSigmaZeroIsDeterministic(t *testing.T) {
	d := NewLogNormal(7*time.Millisecond, 0)
	rng := newRNG()
	for i := 0; i < 100; i++ {
		if v := d.Sample(rng); v != 7*time.Millisecond {
			t.Errorf("sigma=0 sample = %v, want 7ms", v)
		}
	}
}

func TestStringsNonEmpty(t *testing.T) {
	for _, d := range []Distribution{
		NewDeterministic(time.Second),
		NewExponential(time.Second),
		NewLogNormal(time.Second, 1),
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func BenchmarkLogNormalSample(b *testing.B) {
	d := NewLogNormal(10*time.Millisecond, 0.5)
	rng := newRNG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(rng)
	}
}
