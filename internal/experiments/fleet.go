package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/units"
)

// FleetTable4Config parameterizes the fleet-scale version of Table 4's
// iteration-success study: the activity-recognition app under each
// instrumentation build, across thousands of simultaneously simulated tags.
type FleetTable4Config struct {
	// Tags is the fleet size per mode (default 10 000).
	Tags int
	// Duration is the simulated run per tag (default 5 s; Table 4's
	// single-tag study runs 60 s, which the batched kernel trades for
	// population size).
	Duration units.Seconds
	Seed     int64
	// Quantum is the active-mode integration quantum (default 512 cycles
	// = 128 µs; the single-tag rig default is 64). SleepQuantum coarsens
	// integration during the app's 6 ms inter-sample waits (default
	// 16384 cycles ≈ 4 ms). Both move the 47 µF store only a few mV per
	// step; they are the fleet's speed/resolution knobs, alongside
	// deferred supply integration (device.Config.DeferSupply), which every
	// fleet-scale run uses.
	Quantum      sim.Cycles
	SleepQuantum sim.Cycles
}

// DefaultFleetTable4Config returns the 10k-tag configuration.
func DefaultFleetTable4Config() FleetTable4Config {
	return FleetTable4Config{
		Tags:         10_000,
		Duration:     5,
		Seed:         6,
		Quantum:      512,
		SleepQuantum: 16384,
	}
}

// FleetModeResult is one Table-4 success column measured across a fleet.
type FleetModeResult struct {
	Mode apps.PrintMode
	// SuccessRate is fleet-wide completed/attempted iterations.
	SuccessRate float64
	Attempted   int
	Completed   int
	Reboots     int
	// NeverPowered counts tags whose harvester never reached turn-on.
	NeverPowered int
	// AggregateSimSeconds is the simulated time executed for this mode.
	AggregateSimSeconds float64
}

// FleetTable4Result reproduces Table 4's checkpoint-success columns at
// fleet scale.
//
// Fidelity note: the NoPrint and UART columns run exactly the single-tag
// builds (the UART's cost is paid out of each tag's store). The EDB column
// models the debugger's interference as zero — libEDB's printf is a no-op
// without an attached debugger, so the column is the no-print run's —
// which idealizes the 0.11%-of-store marginal cost the single-tag Table 4
// suite measures; attaching a full EDB to every tag would disable the
// batched kernel's analytic charging.
// The paper's qualitative result survives the idealization: EDB-printf
// success tracks the uninstrumented build while UART printf drags it down.
type FleetTable4Result struct {
	Tags     int
	Duration units.Seconds
	Modes    []FleetModeResult
}

// RunFleetTable4 runs the activity app fleet once per instrumentation
// build but one: with no debugger attached, libEDB's Printf returns at
// once, so the EDB-printf build is the no-print build, and its row is the
// no-print run's (TestFleetEDBPrintfIsNoPrint holds the two builds equal
// tag by tag).
func RunFleetTable4(cfg FleetTable4Config) (FleetTable4Result, error) {
	def := DefaultFleetTable4Config()
	if cfg.Tags == 0 {
		cfg.Tags = def.Tags
	}
	if cfg.Duration == 0 {
		cfg.Duration = def.Duration
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = def.Quantum
	}
	if cfg.SleepQuantum == 0 {
		cfg.SleepQuantum = def.SleepQuantum
	}

	out := FleetTable4Result{Tags: cfg.Tags, Duration: cfg.Duration}
	for _, mode := range []apps.PrintMode{apps.NoPrint, apps.UARTPrint} {
		res, tags, err := runFleet(cfg, mode)
		if err != nil {
			return FleetTable4Result{}, fmt.Errorf("fleet mode %v: %w", mode, err)
		}
		mr := FleetModeResult{Mode: mode, AggregateSimSeconds: res.AggregateSimSeconds}
		for i, tr := range res.Tags {
			st := tags[i].Stats(res.Devices[i])
			mr.Attempted += st.Attempted
			mr.Completed += st.Completed
			mr.Reboots += tr.Result.Reboots
			if tr.Err != nil {
				mr.NeverPowered++
			}
		}
		if mr.Attempted > 0 {
			mr.SuccessRate = float64(mr.Completed) / float64(mr.Attempted)
		}
		out.Modes = append(out.Modes, mr)
	}
	edb := out.Modes[0]
	edb.Mode = apps.EDBPrint
	out.Modes = append(out.Modes, edb)
	return out, nil
}

// FleetHarvester places tag i at a deterministic distance spread around
// Table 4's evaluation point (1.4 m — "chosen so the application runs
// intermittently"), noise-free so off phases fast-forward analytically.
func FleetHarvester(i int, seed int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Noise = nil
	h.NoiseFrac = 0
	h.Distance = units.Meters(1.25 + 0.6*float64(i%101)/101.0)
	return h
}

// runFleet runs the activity app fleet under one print build; tags[i] is
// tag i's firmware.
func runFleet(cfg FleetTable4Config, mode apps.PrintMode) (res *fleet.Result, tags []*apps.Activity, err error) {
	tags = make([]*apps.Activity, cfg.Tags)
	res, err = fleet.Run(fleet.Config{
		Tags:         cfg.Tags,
		Duration:     cfg.Duration,
		Seed:         cfg.Seed,
		Quantum:      cfg.Quantum,
		SleepQuantum: cfg.SleepQuantum,
		DeferSupply:  true,
		NewProgram: func(i int) device.Program {
			app := &apps.Activity{Print: mode}
			tags[i] = app
			return app
		},
		NewHarvester: FleetHarvester,
	})
	return res, tags, err
}

// Format renders the fleet-scale Table 4 columns.
func (r FleetTable4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 at fleet scale: %d tags × %s per build\n", r.Tags, r.Duration)
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %10s\n",
		"", "Success", "Iterations", "Attempted", "Reboots")
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %10s\n",
		"", "Rate(%)", "(completed)", "", "")
	for _, m := range r.Modes {
		fmt.Fprintf(&b, "%-14s %10.1f %12d %12d %10d\n",
			m.Mode, 100*m.SuccessRate, m.Completed, m.Attempted, m.Reboots)
	}
	return b.String()
}

// CSV returns one row per mode.
func (r FleetTable4Result) CSV() string {
	var b strings.Builder
	b.WriteString("mode,tags,success_rate,completed,attempted,reboots,never_powered\n")
	for _, m := range r.Modes {
		fmt.Fprintf(&b, "%s,%d,%.4f,%d,%d,%d,%d\n",
			m.Mode, r.Tags, m.SuccessRate, m.Completed, m.Attempted, m.Reboots, m.NeverPowered)
	}
	return b.String()
}
