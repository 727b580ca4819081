package experiments

import (
	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/libedb"
	"repro/internal/units"
)

// WatchpointCostResult quantifies §4.1.3's claim that program-event
// monitoring is "practically energy-interference-free": the target-side
// cost of one code-marker watchpoint.
type WatchpointCostResult struct {
	CyclesPerWatchpoint   float64
	EnergyPerWatchpointNJ float64
}

// RunWatchpointCost executes n watchpoints on a powered target and
// measures the per-watchpoint cycle and energy cost.
func RunWatchpointCost(n int) (WatchpointCostResult, error) {
	if n < 1 {
		n = 1
	}
	d := device.NewWISP5(energy.NullHarvester{}, 99)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	lib, err := libedb.Init(d)
	if err != nil {
		return WatchpointCostResult{}, err
	}
	env := &device.Env{D: d}

	var res WatchpointCostResult
	done := 0
	for done < n {
		// Refill the store; measure in batches that cannot brown out.
		d.Supply.Cap.SetVoltage(2.4)
		d.Supply.Step(0, 0)
		batch := 1000
		if n-done < batch {
			batch = n - done
		}
		t0 := d.Clock.Now()
		e0 := d.Supply.Cap.Energy()
		for i := 0; i < batch; i++ {
			lib.Watchpoint(env, 1+i%libedb.MaxWatchpointID)
		}
		res.CyclesPerWatchpoint = float64(d.Clock.Now()-t0) / float64(batch)
		res.EnergyPerWatchpointNJ = 1e9 * float64(e0-d.Supply.Cap.Energy()) / float64(batch)
		done += batch
	}
	return res, nil
}

// RunThroughput runs the busy program for n short intervals and returns
// the simulated seconds executed per iteration — a simulator engineering
// metric.
func RunThroughput(n int) (float64, error) {
	if n < 1 {
		n = 1
	}
	d := device.NewWISP5(energy.NewRFHarvester(), 98)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	r := device.NewRunner(d, &apps.Busy{})
	if err := r.Flash(); err != nil {
		return 0, err
	}
	per := units.MilliSeconds(250)
	for i := 0; i < n; i++ {
		if _, err := r.RunFor(per); err != nil {
			return 0, err
		}
	}
	return float64(per), nil
}

// RunISAThroughput executes n slices of a register-spin loop on the
// MSP430-subset interpreter and returns instructions retired per slice.
func RunISAThroughput(n int) (float64, error) {
	if n < 1 {
		n = 1
	}
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(5), Voc: 3.3}, 97)
	prog := isa.NewProgram("spin", `
main:	inc r5
	inc r6
	add r5, r7
	jmp main
	`)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		return 0, err
	}
	// Each slice powers the CPU on afresh, which resets its count.
	var retired uint64
	for i := 0; i < n; i++ {
		if _, err := r.RunFor(units.MilliSeconds(50)); err != nil {
			return 0, err
		}
		retired += prog.CPU().Retired()
	}
	return float64(retired) / float64(n), nil
}
