package main

import (
	"fmt"
	"reflect"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/units"
)

// The fleet workload repeats fleet.Run over the room-scale population
// `edb-bench -fleet` simulates: activity-recognition tags at a 0.6–2.0 m
// spread, with the batched scheduler's coarse quanta and deferred supply
// integration. It is the only caller of the fleet engine. fleetTags tags
// hold about 64 KB of state each, far beyond the per-core caches. The
// batched scheduler, deferred supply integration, analytic charging and
// per-tag construction dominate; EDB, the ISA interpreter, explore and the
// network are absent.
//
// Predictions: the fleet scheduler moves only this workload; EDB sampling
// and dirty tracking leave it alone.
const (
	fleetTags     = 2000
	fleetDuration = units.Seconds(5)
)

type fleetBench struct {
	cfg    fleet.Config
	golden []fleet.TagResult
	counts fleetCounts

	rate []float64
	// bytesPerTag is the heap growth per tag fleet.Run measures around
	// construction. It is not exact: runtime-internal allocations land in
	// the same window and move it by a few bytes per tag from run to run.
	bytesPerTag []float64
}

// fleetCounts are the simulated statistics of one fleet.Run.
type fleetCounts struct {
	simS                       float64
	reboots, completed, faults int
}

func newFleet(seed int64) workload {
	return &fleetBench{cfg: fleet.Config{
		Tags:         fleetTags,
		Duration:     fleetDuration,
		Seed:         inputSeed(seed, "fleet"),
		Quantum:      2048,
		SleepQuantum: 24576,
		DeferSupply:  true,
		NewProgram: func(int) device.Program {
			return &apps.Activity{Print: apps.NoPrint, SleepBetween: units.MilliSeconds(40)}
		},
		NewHarvester: roomHarvester,
	}}
}

// roomHarvester spreads tag i across 0.6–2.0 m from the reader, as
// edb-bench's fleet benchmark does: near tags run almost continuously,
// mid-range ones intermittently, far ones mostly recharge.
func roomHarvester(i int, _ int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Noise = nil
	h.NoiseFrac = 0
	h.Distance = units.Meters(0.6 + 1.4*float64(i%97)/97.0)
	return h
}

// setup is a warm-up run that records the golden per-tag results.
func (f *fleetBench) setup() error {
	res, err := fleet.Run(f.cfg)
	if err != nil {
		return err
	}
	if f.golden != nil && !reflect.DeepEqual(res.Tags, f.golden) {
		return fmt.Errorf("warm-up runs disagree: fleet.Run is not deterministic")
	}
	f.golden = res.Tags
	f.counts = fleetCounts{res.AggregateSimSeconds, res.Reboots, res.Completed, res.Faults}
	return nil
}

func (f *fleetBench) op(_ int, tr *tracer) (cost, error) {
	var res *fleet.Result
	tr.begin("fleet.run")
	c, err := measure(func() (err error) {
		res, err = fleet.Run(f.cfg)
		return err
	})
	tr.end()
	if err != nil {
		return c, err
	}
	if !reflect.DeepEqual(res.Tags, f.golden) {
		return c, fmt.Errorf("per-tag results differ from the warm-up run")
	}
	if got := (fleetCounts{res.AggregateSimSeconds, res.Reboots, res.Completed, res.Faults}); got != f.counts {
		return c, fmt.Errorf("counts %+v differ from the warm-up run's %+v", got, f.counts)
	}
	f.rate = append(f.rate, res.AggregateSimSeconds/c.wall.Seconds())
	f.bytesPerTag = append(f.bytesPerTag, res.BytesPerTag)
	return c, nil
}

func (f *fleetBench) report(*tracer) []metric {
	return []metric{
		{name: "sim_s_per_s", unit: "sim-s/s", value: median(f.rate), n: len(f.rate), kind: endToEnd},
		{name: "fleet.sim_s", unit: "s", value: f.counts.simS, n: 1, kind: exactCount},
		{name: "fleet.reboots", unit: "count", value: float64(f.counts.reboots), n: 1, kind: exactCount},
		{name: "fleet.completed", unit: "count", value: float64(f.counts.completed), n: 1, kind: exactCount},
		{name: "fleet.faults", unit: "count", value: float64(f.counts.faults), n: 1, kind: exactCount},
		{name: "fleet.bytes_per_tag", unit: "B", value: median(f.bytesPerTag), n: len(f.bytesPerTag), kind: timingCount},
	}
}

func (f *fleetBench) close() {}
