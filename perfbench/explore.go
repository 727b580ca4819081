package main

import (
	"fmt"
	"reflect"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/explore"
)

// The explore workload runs, per op, two exhaustive power-failure searches
// of the linked-list app under the bounds `edb-bench -explore` uses (cap 5,
// depth 32): first the unguarded build, whose search closes with WAR
// violations, then the guarded build, which verifies clean. Their branches
// share different amounts of work: more than half of the unguarded
// search's branches land on known states, four in five of the guarded
// one's. Fork and restore, O(dirty-page) diffs, state hashing and the seen
// set dominate, and memsim runs with dirty tracking on, where the rig
// workload runs it off. A search sized to strain one process's memory is
// left out: it belongs with the decision on distributed explore.
//
// Predictions: dirty tracking and the explore engine move this workload's
// states_per_s and leave the rig workload alone; EDB sampling, the fleet
// scheduler and the network do not touch it.

// exploreWorkers is the explorer's worker count (explore.Config.Workers).
const exploreWorkers = 1

type exploreBench struct {
	cfgs      [2]explore.Config // unguarded, guarded
	golden    [2]*explore.Report
	stats     [2]explore.DistStats // of the first traced op that passed
	haveStats bool

	rate []float64
}

func newExplore(seed int64) workload {
	e := &exploreBench{}
	target := inputSeed(seed, "explore/target")
	for i, guards := range []bool{false, true} {
		guards := guards
		e.cfgs[i] = explore.Config{
			NewRig: func() (*device.Device, device.Program, error) {
				return core.ExploreTarget(&apps.LinkedList{GuardIterations: guards}, target)
			},
			Mode:          explore.ModeWrite,
			MaxCandidates: 5,
			MaxDepth:      32,
			MaxStates:     8192,
			Workers:       exploreWorkers,
		}
	}
	return e
}

// setup is a warm-up op whose reports become the goldens.
func (e *exploreBench) setup() error {
	var reps [2]*explore.Report
	for i, cfg := range e.cfgs {
		rep, err := explore.Run(cfg)
		if err != nil {
			return err
		}
		reps[i] = rep
	}
	if err := checkVerdicts(reps); err != nil {
		return err
	}
	if e.golden[0] != nil && !reflect.DeepEqual(reps, e.golden) {
		return fmt.Errorf("warm-up reports disagree: the search is not deterministic")
	}
	e.golden = reps
	return nil
}

// checkVerdicts holds the searches to what the workload is meant to show.
func checkVerdicts(reps [2]*explore.Report) error {
	if reps[0].Truncated {
		return fmt.Errorf("unguarded search truncated at %d states; it must close", reps[0].States)
	}
	if reps[0].Clean() {
		return fmt.Errorf("unguarded search found no WAR violations")
	}
	if !reps[1].Clean() {
		return fmt.Errorf("guarded search found WAR violations")
	}
	return nil
}

// op runs both searches through explore.Run, or in a traced run through
// RunWithExecutors with a timing wrapper around one local executor and one
// dedup partition. Either way the reports must equal the goldens.
func (e *exploreBench) op(_ int, tr *tracer) (cost, error) {
	var reps [2]*explore.Report
	var stats [2]explore.DistStats
	c, err := measure(func() error {
		for k, cfg := range e.cfgs {
			var err error
			if tr == nil {
				reps[k], err = explore.Run(cfg)
			} else {
				reps[k], err = tracedSearch(cfg, tr, &stats[k])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return c, err
	}
	if !reflect.DeepEqual(reps, e.golden) {
		return c, fmt.Errorf("reports differ from the warm-up op")
	}
	if tr != nil {
		if !e.haveStats {
			e.stats, e.haveStats = stats, true
		} else if !reflect.DeepEqual(stats, e.stats) {
			return c, fmt.Errorf("search statistics %+v differ from the first op's %+v", stats, e.stats)
		}
	}
	e.rate = append(e.rate, float64(reps[0].States+reps[1].States)/c.wall.Seconds())
	return c, nil
}

func tracedSearch(cfg explore.Config, tr *tracer, st *explore.DistStats) (*explore.Report, error) {
	tr.begin("explore.search")
	defer tr.end()
	ex, err := explore.NewLocalExecutor(cfg)
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	return explore.RunWithExecutors(cfg, []explore.Executor{timedExecutor{ex, tr}}, 1, st)
}

// timedExecutor records a span around every call the explore coordinator
// makes into its executor.
type timedExecutor struct {
	explore.Executor
	tr *tracer
}

func (x timedExecutor) Expand(states []explore.ShardState) ([]explore.Expansion, error) {
	x.tr.begin("explore.expand")
	defer x.tr.end()
	return x.Executor.Expand(states)
}

func (x timedExecutor) Dedup(part int, hashes []uint64) ([]bool, error) {
	x.tr.begin("explore.dedup")
	defer x.tr.end()
	return x.Executor.Dedup(part, hashes)
}

func (e *exploreBench) report(tr *tracer) []metric {
	var states, branches, segments, hits int
	for _, r := range e.golden {
		states += r.States
		branches += r.Branches
		segments += r.Segments
		hits += r.DedupHits
	}
	out := []metric{
		{name: "states_per_s", unit: "states/s", value: median(e.rate), n: len(e.rate), kind: endToEnd},
		{name: "explore.states", unit: "count", value: float64(states), n: 1, kind: exactCount},
		{name: "explore.branches", unit: "count", value: float64(branches), n: 1, kind: exactCount},
		{name: "explore.segments", unit: "count", value: float64(segments), n: 1, kind: exactCount},
		{name: "explore.dedup_hit_pct", unit: "%", value: 100 * ratio(float64(hits), float64(branches)), n: branches, kind: exactCount},
	}
	if tr == nil {
		return out
	}
	waves, batches := 0, 0
	for _, s := range e.stats {
		waves += s.Waves
		batches += s.ShardBatches
	}
	expand, dedup, coord := tr.selfPerOp("explore.expand"), tr.selfPerOp("explore.dedup"), tr.selfPerOp("explore.search")
	return append(out,
		metric{name: "explore.waves", unit: "count", value: float64(waves), n: 1, kind: exactCount},
		metric{name: "explore.batches", unit: "count", value: float64(batches), n: 1, kind: exactCount},
		metric{name: "explore.expand_ms", unit: "ms", value: median(expand), n: len(expand), kind: layer},
		metric{name: "explore.dedup_ms", unit: "ms", value: median(dedup), n: len(dedup), kind: layer},
		metric{name: "explore.coord_ms", unit: "ms", value: median(coord), n: len(coord), kind: layer},
	)
}

func (e *exploreBench) close() {}
