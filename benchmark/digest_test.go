package main

import "testing"

// quickRun executes one -quick-sized run of the chaos workload, the
// cheapest one that exercises the controller and the fault engine.
func quickRun(t *testing.T, seed uint64) runStats {
	t.Helper()
	sc, _ := scenarioByName("chaos")
	r, err := sc.build(seed, quickDuration)
	if err != nil {
		t.Fatal(err)
	}
	return r.execute(quickDuration, sc.warm, nil)
}

func TestDigestRepeatsPerSeed(t *testing.T) {
	a, b, c := quickRun(t, 1), quickRun(t, 1), quickRun(t, 2)
	if why := a.check(0); why != "" {
		t.Fatalf("first run failed its checks: %s", why)
	}
	if why := b.check(a.digest); why != "" {
		t.Errorf("same seed: %s (digests %x, %x)", why, a.digest, b.digest)
	}
	if c.digest == a.digest {
		t.Errorf("seeds 1 and 2 share digest %x", a.digest)
	}
	if why := c.check(a.digest); why == "" {
		t.Error("a run with another digest passed the check")
	}
}

func TestCheckFlagsBrokenCounts(t *testing.T) {
	ok := quickRun(t, 3)
	for name, broken := range map[string]func(st *runStats){
		"lost request":        func(st *runStats) { st.resolved-- },
		"double resolution":   func(st *runStats) { st.resolved++ },
		"left in flight":      func(st *runStats) { st.inFlight = 1 },
		"outcomes > resolved": func(st *runStats) { st.completed = st.resolved - st.failed + 1 },
		"nothing resolved":    func(st *runStats) { st.issued, st.resolved, st.resolvedWarm = 0, 0, 0 },
	} {
		st := ok
		broken(&st)
		if why := st.check(ok.digest); why == "" {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestBlockSeeds(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		for i := 0; i < seedsPerBlock; i++ {
			s := blockSeed(seed, seedsPerBlock, i)
			if seen[s] {
				t.Fatalf("kernel seed %d used by two blocks or twice in one", s)
			}
			seen[s] = true
			if again := blockSeed(seed, seedsPerBlock, i+seedsPerBlock); again != s {
				t.Errorf("run %d of seed %d: kernel seed %d, want the block to repeat (%d)", i+seedsPerBlock, seed, again, s)
			}
		}
	}
	if got := blockSeed(7, 1, 0); got != 7 {
		t.Errorf("one-seed block of seed 7 simulates kernel seed %d", got)
	}
}
