package profile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Folded-stack output in the format Brendan Gregg's flamegraph.pl and
// speedscope consume: one sample per line, semicolon-separated frames
// followed by a space and an integer value. The stack here is the
// request type, the critical-path services from the front-end down, and
// the blamed phase as the innermost frame:
//
//	getCart;front-end;cart;cart-db;cpu 1234
//
// Values are microseconds of blamed virtual time summed across traces.

// WriteFolded renders the profile's folded stacks. Sub-microsecond
// stacks are dropped (flamegraph tooling ignores zero-valued samples).
func WriteFolded(w io.Writer, p *Profile) error {
	bw := bufio.NewWriter(w)
	for _, l := range p.Folded {
		us := int64(l.Dur / time.Microsecond)
		if us == 0 {
			continue
		}
		if _, err := fmt.Fprintf(bw, "%s %d\n", l.Stack, us); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFolded parses a folded-stack file back into lines. Blank lines
// are skipped; anything else must be "stack value" with an integer
// microsecond value after the last space, in [0, maxFoldedMicros].
func ReadFolded(r io.Reader) ([]FoldedLine, error) {
	var out []FoldedLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("profile: folded line %d: no value: %q", lineNo, line)
		}
		us, err := strconv.ParseInt(line[cut+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("profile: folded line %d: bad value: %w", lineNo, err)
		}
		if us < 0 || us > maxFoldedMicros {
			return nil, fmt.Errorf("profile: folded line %d: value %d outside [0, %d] µs", lineNo, us, maxFoldedMicros)
		}
		out = append(out, FoldedLine{
			Stack: line[:cut],
			Dur:   time.Duration(us) * time.Microsecond,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("profile: folded: %w", err)
	}
	return out, nil
}

// maxFoldedMicros is the largest folded value whose microseconds fit in
// a time.Duration.
const maxFoldedMicros = math.MaxInt64 / int64(time.Microsecond)

// ProfileFromFolded reconstructs an aggregate blame profile from folded
// stacks alone (the innermost frame names the phase, the frame above it
// the service). Duplicate stacks — e.g. the same stack appearing in
// several concatenated files — are merged by summing. Trace counts and
// SLO context are not stored in folded form, so the resulting profile
// renders totals rather than means.
func ProfileFromFolded(lines []FoldedLine) (*Profile, error) {
	agg := make(map[string]*[NumPhases]time.Duration)
	var order []string
	merged := make(map[string]time.Duration, len(lines))
	for i, l := range lines {
		frames := strings.Split(l.Stack, ";")
		if len(frames) < 2 {
			return nil, fmt.Errorf("profile: folded stack %d: need at least service;phase: %q", i, l.Stack)
		}
		ph, ok := PhaseByName(frames[len(frames)-1])
		if !ok {
			return nil, fmt.Errorf("profile: folded stack %d: unknown phase %q", i, frames[len(frames)-1])
		}
		svc := frames[len(frames)-2]
		tot, seen := agg[svc]
		if !seen {
			tot = &[NumPhases]time.Duration{}
			agg[svc] = tot
			order = append(order, svc)
		}
		tot[ph] += l.Dur
		merged[l.Stack] += l.Dur
	}
	p := &Profile{}
	for _, svc := range order {
		p.Services = append(p.Services, ServiceProfile{Service: svc, Total: *agg[svc]})
	}
	sortServices(p.Services)
	for stack, d := range merged {
		p.Folded = append(p.Folded, FoldedLine{Stack: stack, Dur: d})
	}
	sortFolded(p.Folded)
	return p, nil
}
