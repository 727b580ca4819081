package explore

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memsim"
	"repro/internal/sim"
)

// Violation is one distinct WAR (read-before-write, no intervening commit)
// hazard discovered during exploration: a power failure at or after the
// offending write makes re-execution observe the write instead of the
// value originally read. The representative fields come from the first
// state, in canonical BFS order, whose segment exhibited the hazard.
type Violation struct {
	// Addr is the non-volatile byte written after being read.
	Addr memsim.Addr
	// StateID and Trace identify the first state exhibiting the hazard and
	// its branch trace from the root (candidate indices, e.g. "root/3/1").
	StateID int
	Trace   string
	// Cand is the first failure candidate in that segment at or after the
	// hazardous write; Cycle is the write's segment-relative cycle.
	Cand  int
	Cycle sim.Cycles
	// Count is the number of explored states whose segments exhibited a
	// WAR hazard first at this address.
	Count int
}

// Report is the merged result of one exploration. Every field is a pure
// function of the Config — never of the worker count or scheduling — which
// the bench suite checks by deep-comparing reports across worker counts.
type Report struct {
	Mode string

	States   int // distinct non-volatile states (nodes of the fork tree)
	Branches int // failure edges explored (including dedup hits)
	// Segments is probes plus branches: what the engine ran when it
	// replayed each state's segment once per candidate. It now runs one
	// segment per state and captures every child in it, but keeps the
	// count so reports and their goldens stay comparable.
	Segments  int
	DedupHits int // branches whose successor state was already known
	Capped    int // distinct states dropped by the MaxStates budget
	Truncated bool

	Outcomes     map[string]int // probe outcomes: capped/deadline/fault/returned/halted
	AssertStates int            // states whose probe saw a failed keep-alive assertion
	WARStates    int            // states whose probe window contained a WAR hazard
	HashChecks   int            // full-image hash cross-checks performed

	Violations []*Violation
}

// DedupRate returns the fraction of explored branches that landed on an
// already-known state.
func (r *Report) DedupRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.DedupHits) / float64(r.Branches)
}

// Clean reports whether exploration found no WAR violations.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Format renders the report as the console/smoke-facing text. The output
// is deterministic: map-backed sections are sorted.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore: mode=%s\n", r.Mode)
	fmt.Fprintf(&b, "states %d  branches %d  segments %d  dedup hits %d (%.1f%%)\n",
		r.States, r.Branches, r.Segments, r.DedupHits, 100*r.DedupRate())
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("probe outcomes:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Outcomes[k])
	}
	b.WriteByte('\n')
	if r.AssertStates > 0 {
		fmt.Fprintf(&b, "assert failures observed in %d state(s)\n", r.AssertStates)
	}
	if r.Truncated {
		b.WriteString("frontier truncated by depth/state caps\n")
	}
	if r.Clean() {
		b.WriteString("no WAR violations detected\n")
		return b.String()
	}
	fmt.Fprintf(&b, "WAR violations: %d distinct address(es), %d state(s) affected\n",
		len(r.Violations), r.WARStates)
	for i, v := range r.Violations {
		fmt.Fprintf(&b, "  [%d] non-idempotent re-execution: %#04x written after read with no commit between (first: state %d, branch %s, failure point %d, cycle +%d; %d state(s))\n",
			i+1, uint16(v.Addr), v.StateID, v.Trace, v.Cand, int64(v.Cycle), v.Count)
	}
	return b.String()
}
