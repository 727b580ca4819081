package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/explore"
)

// exploreWorkload is the benchmark search: the unguarded linked-list bug
// with a small per-segment candidate cap and a deep frontier. The cap is
// chosen so the state space *closes* under the bound (the frontier drains
// instead of hitting the depth wall), which is where dedup earns its keep:
// more than half the injected branches land on already-known states.
func exploreWorkload(quick bool) explore.Config {
	cfg := explore.Config{
		NewRig: func() (*device.Device, device.Program, error) {
			return core.ExploreTarget(&apps.LinkedList{}, 42)
		},
		Mode:          explore.ModeWrite,
		MaxCandidates: 5,
		MaxDepth:      32,
		MaxStates:     8192,
	}
	if quick {
		cfg.MaxCandidates = 4
		cfg.MaxStates = 2048
	}
	return cfg
}

// runExploreBench measures the exhaustive checker: states and branches per
// second, the dedup hit rate, and 1→N worker scaling, with the merged
// report deep-compared across worker counts (any divergence is a
// determinism bug, not a statistics artifact). Results land in
// BENCH_explore.json.
func runExploreBench(o *jobOut, opt options) error {
	cfg := exploreWorkload(opt.quick)
	workers := []int{1, 2, 4}

	var base *explore.Report
	secs := make([]float64, len(workers))
	for i, w := range workers {
		c := cfg
		c.Workers = w
		runtime.GC()
		start := time.Now()
		rep, err := explore.Run(c)
		if err != nil {
			return fmt.Errorf("explore bench (%d workers): %w", w, err)
		}
		secs[i] = time.Since(start).Seconds()
		if base == nil {
			base = rep
			if rep.Truncated {
				return fmt.Errorf("explore bench: workload truncated (states=%d); the search must close", rep.States)
			}
			if rep.Clean() {
				return fmt.Errorf("explore bench: workload found no WAR violations")
			}
		} else if !reflect.DeepEqual(base, rep) {
			return fmt.Errorf("explore bench: report at %d workers diverges from the 1-worker report", w)
		}
	}

	o.metric("explore_states", float64(base.States))
	o.metric("explore_branches", float64(base.Branches))
	o.metric("explore_segments", float64(base.Segments))
	o.metric("explore_dedup_hit_pct", 100*base.DedupRate())
	o.metric("explore_war_violations", float64(len(base.Violations)))
	for i, w := range workers {
		o.metric(fmt.Sprintf("explore_states_per_s_w%d", w), float64(base.States)/secs[i])
		o.metric(fmt.Sprintf("explore_branches_per_s_w%d", w), float64(base.Branches)/secs[i])
	}
	o.metric("explore_speedup_4w", secs[0]/secs[len(secs)-1])
	o.metric("explore_host_cpus", float64(runtime.NumCPU()))

	var b strings.Builder
	fmt.Fprintf(&b, "exhaustive power-failure exploration (unguarded linked list, mode=%s, cap=%d):\n",
		base.Mode, cfg.MaxCandidates)
	fmt.Fprintf(&b, "  states %d  branches %d  segments %d  dedup %.1f%%  WAR addresses %d\n",
		base.States, base.Branches, base.Segments, 100*base.DedupRate(), len(base.Violations))
	for i, w := range workers {
		fmt.Fprintf(&b, "  %d worker(s): %8.0f states/s  %8.0f branches/s  (%.3fs)\n",
			w, float64(base.States)/secs[i], float64(base.Branches)/secs[i], secs[i])
	}
	fmt.Fprintf(&b, "  1->4 worker speedup %.2fx on %d host cpu(s)\n",
		secs[0]/secs[len(secs)-1], runtime.NumCPU())
	b.WriteString("  reports identical across worker counts\n")
	o.text = b.String()
	return nil
}
