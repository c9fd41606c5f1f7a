package psq_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"sora/internal/psq"
	"sora/internal/sim"
)

// refServer is a reference processor-sharing server: totalRate and
// perJobRate recomputed at every use and Duration.Seconds for every
// conversion.
// Its runnable set is a plain slice searched for the smallest doneKey,
// so it shares no code with the Server it checks.
type refServer struct {
	k                        *sim.Kernel
	cores, alpha             float64
	attained, busy, capacity float64
	last                     sim.Time
	runnable                 []*refJob
	timer                    *sim.Timer
	onDone                   func(id int)
}

type refJob struct {
	id      int
	doneKey float64
}

func newRefServer(k *sim.Kernel, cores, alpha float64, onDone func(int)) *refServer {
	return &refServer{k: k, cores: cores, alpha: alpha, last: k.Now(), onDone: onDone}
}

func (s *refServer) totalRate(n int) float64 {
	if n == 0 || s.cores == 0 {
		return 0
	}
	nf := float64(n)
	raw := math.Min(nf, s.cores)
	excess := nf - s.cores
	if excess < 0 {
		excess = 0
	}
	return raw / (1 + s.alpha*excess)
}

func (s *refServer) perJobRate(n int) float64 {
	if n == 0 {
		return 0
	}
	return s.totalRate(n) / float64(n)
}

func (s *refServer) advance() {
	now := s.k.Now()
	if now <= s.last {
		return
	}
	dt := (now - s.last).Seconds()
	if n := len(s.runnable); n > 0 {
		s.attained += s.perJobRate(n) * dt
		s.busy += math.Min(float64(n), s.cores) * dt
	}
	s.capacity += s.cores * dt
	s.last = now
}

// lead returns the runnable job completing first, the earliest
// submitted on ties.
func (s *refServer) lead() *refJob {
	var best *refJob
	for _, j := range s.runnable {
		if best == nil || j.doneKey < best.doneKey || (j.doneKey == best.doneKey && j.id < best.id) {
			best = j
		}
	}
	return best
}

func (s *refServer) arm(dt time.Duration) {
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.timer = s.k.Schedule(dt, s.complete)
}

func (s *refServer) reschedule() {
	lead := s.lead()
	if lead == nil {
		if s.timer != nil {
			s.timer.Cancel()
			s.timer = nil
		}
		return
	}
	remaining := lead.doneKey - s.attained
	if remaining <= 0 {
		s.arm(0)
		return
	}
	r := s.perJobRate(len(s.runnable))
	if r <= 0 {
		if s.timer != nil {
			s.timer.Cancel()
			s.timer = nil
		}
		return
	}
	s.arm(time.Duration(math.Ceil(remaining / r * float64(time.Second))))
}

func (s *refServer) complete() {
	s.timer = nil
	s.advance()
	var done []int
	for lead := s.lead(); lead != nil && lead.doneKey <= s.attained+0.5e-9; lead = s.lead() {
		s.remove(lead)
		done = append(done, lead.id)
	}
	s.reschedule()
	for _, id := range done {
		s.onDone(id)
	}
}

func (s *refServer) remove(j *refJob) {
	s.runnable = slices.DeleteFunc(s.runnable, func(o *refJob) bool { return o == j })
}

func (s *refServer) submit(id int, demand time.Duration) {
	s.advance()
	s.runnable = append(s.runnable, &refJob{id: id, doneKey: s.attained + demand.Seconds()})
	s.reschedule()
}

func (s *refServer) setCores(c float64) {
	s.advance()
	s.cores = c
	s.reschedule()
}

// completion is one job's completion as (time, id).
type completion struct {
	at sim.Time
	id int
}

// FuzzPSQ decodes bytes into a sequence of Submit, SetCores and time
// steps, applies it to a Server and to refServer in lockstep, and
// requires the same completions at the same instants and bit-equal busy
// and capacity integrals.
// Completions of one instant are compared as a set: the two runnable
// sets break doneKey ties differently.
func FuzzPSQ(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 20, 3, 5, 1, 0, 3, 5, 2, 0, 3, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cores := float64(next() % 5)
		alpha := float64(next()%8) * 0.01
		k1, k2 := sim.NewKernel(1), sim.NewKernel(1)
		var got, want []completion
		s := psq.New(k1, cores, psq.WithOverhead(alpha))
		ref := newRefServer(k2, cores, alpha, func(id int) { want = append(want, completion{k2.Now(), id}) })
		for op, id := 0, 0; len(data) > 0 && op < 200; op++ {
			switch next() % 4 {
			case 0, 1: // submit
				id++
				demand := time.Duration(next()) * time.Duration(1+next()%4*333) * time.Microsecond
				if next()%16 == 0 {
					demand += time.Duration(next()%3) * time.Second
				}
				jid := id
				s.Submit(demand, func() { got = append(got, completion{k1.Now(), jid}) })
				ref.submit(jid, demand)
			case 2:
				c := float64(next()%9) * 0.5
				s.SetCores(c)
				ref.setCores(c)
			case 3: // time passes
				until := k1.Now() + sim.Time(next()*next())*sim.Time(time.Microsecond)
				k1.RunUntil(until)
				k2.RunUntil(until)
			}
			b := s.CumulativeBusy()
			ref.advance()
			if math.Float64bits(b) != math.Float64bits(ref.busy) {
				t.Fatalf("op %d: busy %v, reference %v", op, b, ref.busy)
			}
		}
		k1.Run()
		k2.Run()
		s.CumulativeBusy()
		ref.advance()
		if fmt.Sprint(byInstant(got)) != fmt.Sprint(byInstant(want)) {
			t.Fatalf("completions differ:\n server    %v\n reference %v", got, want)
		}
		for _, p := range [][2]float64{{s.CumulativeBusy(), ref.busy}, {s.CumulativeCapacity(), ref.capacity}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("integrals differ: server %v, reference %v", p[0], p[1])
			}
		}
	})
}

// byInstant sorts the ids of each instant's completions.
func byInstant(cs []completion) []completion {
	out := slices.Clone(cs)
	slices.SortStableFunc(out, func(a, b completion) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.id, b.id)
	})
	return out
}
