package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/units"
)

// kernelBaseline times the per-rig simulator loop BenchmarkSimulatorThroughput
// measures (busy app, EDB attached, RF harvest) and returns simulated seconds
// executed per wall second.
func kernelBaseline(quick bool) (float64, error) {
	iters := 400 // 100 simulated seconds
	if quick {
		iters = 80
	}
	// Clear other experiments' garbage first: the baseline is the speedup
	// denominator, and background GC from a shared-process suite run can
	// halve it.
	runtime.GC()
	start := time.Now()
	per, err := experiments.RunThroughput(iters)
	if err != nil {
		return 0, err
	}
	wall := time.Since(start).Seconds()
	return float64(iters) * per / wall, nil
}

// runKernelBench records the sequential simulator kernel's throughput — the
// denominator of the fleet speedup — as a "kernel" suite in BENCH.json.
func runKernelBench(o *jobOut, opt options) error {
	simPerSec, err := kernelBaseline(opt.quick)
	if err != nil {
		return err
	}

	isaIters := 40
	if opt.quick {
		isaIters = 10
	}
	start := time.Now()
	perIter, err := experiments.RunISAThroughput(isaIters)
	if err != nil {
		return err
	}
	isaWall := time.Since(start).Seconds()
	instrPerSec := perIter * float64(isaIters) / isaWall

	o.metric("kernel_sim_s_per_sec", simPerSec)
	o.metric("kernel_isa_instr_per_sec", instrPerSec)

	var b strings.Builder
	fmt.Fprintf(&b, "sequential simulator kernel:\n")
	fmt.Fprintf(&b, "  rig throughput   %10.1f sim-s/s   (busy app + EDB, RF harvest)\n", simPerSec)
	fmt.Fprintf(&b, "  ISA interpreter  %10.2f Minstr/s  (spin loop, constant supply)\n", instrPerSec/1e6)
	o.text = b.String()
	return nil
}

// roomHarvester spreads tag i across 0.6–2.0 m from the reader: near tags
// run almost continuously, mid-range tags intermittently, and far tags spend
// most of their lives recharging — the power-state mix of a real deployment.
func roomHarvester(i int, seed int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Noise = nil
	h.NoiseFrac = 0
	h.Distance = units.Meters(0.6 + 1.4*float64(i%97)/97.0)
	return h
}

// runFleetBench benchmarks the batched fleet kernel: a room-scale population
// of activity-recognition tags sampling at 25 Hz, swept through the
// time-sliced kernel, against the sequential per-rig baseline. Results go to
// BENCH_fleet.json.
func runFleetBench(o *jobOut, opt options) error {
	baseline, err := kernelBaseline(opt.quick)
	if err != nil {
		return fmt.Errorf("fleet bench baseline: %w", err)
	}

	tags := opt.fleetTags
	if tags <= 0 {
		tags = 10_000
	}
	dur := units.Seconds(10)
	if opt.quick {
		dur = 3
		if tags > 2000 {
			tags = 2000
		}
	}

	start := time.Now()
	res, err := fleet.Run(fleet.Config{
		Tags:         tags,
		Duration:     dur,
		Seed:         12,
		Quantum:      2048,
		SleepQuantum: 24576,
		DeferSupply:  true,
		NewProgram: func(i int) device.Program {
			return &apps.Activity{Print: apps.NoPrint, SleepBetween: units.MilliSeconds(40)}
		},
		NewHarvester: roomHarvester,
	})
	if err != nil {
		return fmt.Errorf("fleet bench: %w", err)
	}
	wall := time.Since(start).Seconds()

	aggPerSec := res.AggregateSimSeconds / wall
	tagsPerSec := float64(tags) / wall
	speedup := aggPerSec / baseline

	o.metric("fleet_tags", float64(tags))
	o.metric("fleet_duration_s", float64(dur))
	o.metric("fleet_wall_s", wall)
	o.metric("fleet_tags_per_sec", tagsPerSec)
	o.metric("fleet_agg_sim_s_per_sec", aggPerSec)
	o.metric("fleet_bytes_per_tag", res.BytesPerTag)
	o.metric("fleet_kernel_baseline_sim_s_per_sec", baseline)
	o.metric("fleet_speedup_x", speedup)
	o.metric("fleet_reboots", float64(res.Reboots))

	var b strings.Builder
	fmt.Fprintf(&b, "fleet kernel: %d tags × %s (activity app @ 25 Hz, 0.6–2.0 m spread):\n",
		tags, dur)
	fmt.Fprintf(&b, "  wall time        %10.2f s\n", wall)
	fmt.Fprintf(&b, "  tags/sec         %10.0f\n", tagsPerSec)
	fmt.Fprintf(&b, "  sim-s/sec        %10.0f aggregate\n", aggPerSec)
	fmt.Fprintf(&b, "  memory/tag       %10.0f bytes\n", res.BytesPerTag)
	fmt.Fprintf(&b, "  baseline         %10.1f sim-s/s (sequential rig)\n", baseline)
	fmt.Fprintf(&b, "  speedup          %10.1fx\n", speedup)
	fmt.Fprintf(&b, "  fleet reboots    %10d\n", res.Reboots)
	o.text = b.String()
	return nil
}
