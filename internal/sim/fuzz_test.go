package sim_test

import (
	"testing"
	"time"

	"sora/internal/sim"
)

// fuzzDelays is the delay alphabet of FuzzKernelOrder: zero and 1 ns
// (either side of the 1 ns test horizon), sub-millisecond hops, the
// default near horizon and its neighbours, and think-scale delays.
var fuzzDelays = [16]time.Duration{
	0, 1, 2, 90 * time.Nanosecond,
	17 * time.Microsecond, 250 * time.Microsecond, 999 * time.Microsecond, 3 * time.Millisecond,
	sim.NearHorizon - 1, sim.NearHorizon, sim.NearHorizon + 1, 40 * time.Millisecond,
	250 * time.Millisecond, time.Second, 1500 * time.Millisecond, time.Hour,
}

// fuzzMaxOps bounds one input's operation count so every execution
// stays fast.
const fuzzMaxOps = 4096

// FuzzKernelOrder decodes bytes into a stream of schedule, cancel,
// reset and step operations and runs it on the live kernel and the
// frozen reference in lockstep, failing on the first divergence in the
// fired event's id or the clock. The first byte picks the near horizon
// from testHorizons; each following byte pair is one operation: the low
// two bits of the first byte select it, the rest of that byte picks the
// delay, and the second byte picks the timer. The seed corpus lives in
// testdata/fuzz/FuzzKernelOrder, so plain `go test` replays it.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l := newLockstep(t, testHorizons[int(data[0])%len(testHorizons)].h)
		data = data[1:]
		for op := 0; op+1 < len(data) && op < 2*fuzzMaxOps; op += 2 {
			code, arg := data[op], int(data[op+1])
			d := fuzzDelays[int(code>>2)%len(fuzzDelays)]
			switch {
			case code&3 == 0 || len(l.live) == 0:
				l.schedule(d)
			case code&3 == 1:
				l.cancel(arg % len(l.live))
			case code&3 == 2:
				l.reset(arg%len(l.live), d)
			default:
				l.step()
			}
			l.checkPending(op / 2)
		}
		l.drain()
	})
}
