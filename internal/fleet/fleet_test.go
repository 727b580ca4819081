package fleet_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/isa"
	"repro/internal/parallel"
	"repro/internal/units"
)

// testProgram builds tag i's firmware: a mix of burst-atomic Go apps and
// sliceable ISA programs, including one that halts (Completed), one that
// spins forever (DeadlineHit) and one that faults on every boot (the
// wedged-MCU burn until brown-out), so every phase of the runner is
// exercised.
func testProgram(i int) device.Program {
	switch i % 4 {
	case 0:
		return &apps.Activity{Print: apps.NoPrint}
	case 1:
		return isa.NewProgram("spin", `
main:	inc r5
	inc r6
	add r5, r7
	jmp main
`)
	case 2:
		return isa.NewProgram("counts-then-halts", `
	.equ HALT, 0x012C
main:	mov #0, r5
loop:	add #1, r5
	cmp #5000, r5
	jne loop
	mov #1, &HALT
`)
	default:
		return isa.NewProgram("counts-then-faults", `
main:	mov #0, r5
loop:	add #1, r5
	cmp #200, r5
	jne loop
	mov &0x0002, r6
	jmp main
`)
	}
}

// testHarvester mixes noise-free (analytic charge jumps) and noisy
// (stepped integration) supplies across the fleet.
func testHarvester(i int, seed int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Distance = units.Meters(0.8 + 0.1*float64(i%5))
	if i%2 == 0 {
		h.Noise = nil
		h.NoiseFrac = 0
	}
	return h
}

// runSequential produces the golden reference for tag i: a plain
// sequential Rig run on an identically-constructed device.
func runSequential(t *testing.T, i int, seed int64, duration units.Seconds) fleet.TagResult {
	t.Helper()
	tagSeed := parallel.ShardSeed(seed, i)
	rig, err := core.NewRig(testProgram(i),
		core.WithoutEDB(),
		core.WithSeed(tagSeed),
		core.WithHarvester(testHarvester(i, tagSeed)))
	if err != nil {
		t.Fatalf("rig %d: %v", i, err)
	}
	res, err := rig.Run(duration)
	return fleet.TagResult{Result: res, Err: err}
}

// TestFleetMatchesSequential is the golden equivalence property: a batched
// run of N tags produces byte-identical per-tag outcomes to N sequential
// Rig runs, at every worker count.
func TestFleetMatchesSequential(t *testing.T) {
	const (
		n        = 9
		seed     = 42
		duration = units.Seconds(2)
	)

	want := make([]fleet.TagResult, n)
	for i := range want {
		want[i] = runSequential(t, i, seed, duration)
	}

	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		res, err := fleet.Run(fleet.Config{
			Tags:         n,
			Duration:     duration,
			Seed:         seed,
			NewProgram:   testProgram,
			NewHarvester: testHarvester,
		})
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, got := range res.Tags {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("workers=%d tag %d diverged from sequential run:\n got %+v\nwant %+v",
					workers, i, got, want[i])
			}
		}
	}
}

// TestFleetSliceInvariance: the slice size is a scheduling knob, not a
// semantic one — any slice length must produce identical outcomes.
func TestFleetSliceInvariance(t *testing.T) {
	run := func(slice units.Seconds) *fleet.Result {
		res, err := fleet.Run(fleet.Config{
			Tags:         6,
			Duration:     1,
			Slice:        slice,
			Seed:         7,
			NewProgram:   testProgram,
			NewHarvester: testHarvester,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(units.MilliSeconds(50))
	for _, slice := range []units.Seconds{units.MilliSeconds(1), units.MilliSeconds(300), 2} {
		got := run(slice)
		if !reflect.DeepEqual(got.Tags, base.Tags) {
			t.Errorf("slice=%v changed outcomes", slice)
		}
	}
}

// TestFleetSleepQuantumEquivalence: with the coarse sleep quantum enabled,
// the batched run must still match a sequential Runner on a device built
// with the same config (the Rig constructor has no SleepQuantum knob, so
// the reference builds the device by hand).
func TestFleetSleepQuantumEquivalence(t *testing.T) {
	const (
		n        = 4
		seed     = 11
		duration = units.Seconds(2)
		sleepQ   = 4096
	)
	prog := func(i int) device.Program { return &apps.Activity{Print: apps.NoPrint} }
	harv := func(i int, s int64) energy.Harvester { return fleet.DefaultHarvester(i, s) }

	want := make([]fleet.TagResult, n)
	for i := range want {
		tagSeed := parallel.ShardSeed(seed, i)
		h := harv(i, tagSeed)
		dcfg := device.DefaultConfig()
		dcfg.Seed = tagSeed
		dcfg.SleepQuantum = sleepQ
		if r, ok := h.(energy.Reseeder); ok {
			r.Reseed(tagSeed)
		}
		d := device.New(dcfg, energy.WISP5Supply(h))
		r := device.NewRunner(d, prog(i))
		if err := r.Flash(); err != nil {
			t.Fatal(err)
		}
		res, err := r.RunFor(duration)
		want[i] = fleet.TagResult{Result: res, Err: err}
	}

	res, err := fleet.Run(fleet.Config{
		Tags:         n,
		Duration:     duration,
		Seed:         seed,
		SleepQuantum: sleepQ,
		NewProgram:   prog,
		NewHarvester: harv,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res.Tags {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("tag %d diverged under SleepQuantum:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestFleetContentionDeterministic: reader contention has no sequential
// equivalent, but it must still be bit-for-bit deterministic at any worker
// count, and sharing the carrier must not help the fleet (fewer or equal
// completions/iterations than uncontended tags).
func TestFleetContentionDeterministic(t *testing.T) {
	cfg := fleet.Config{
		Tags:       8,
		Duration:   2,
		Seed:       3,
		NewProgram: func(i int) device.Program { return &apps.Activity{Print: apps.NoPrint} },
		Contention: fleet.ContentionConfig{Slots: 2},
	}
	prev := parallel.SetWorkers(1)
	a, err := fleet.Run(cfg)
	parallel.SetWorkers(4)
	b, err2 := fleet.Run(cfg)
	parallel.SetWorkers(prev)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if !reflect.DeepEqual(a.Tags, b.Tags) {
		t.Error("contended fleet diverged across worker counts")
	}

	uncontended := cfg
	uncontended.Contention = fleet.ContentionConfig{}
	c, err := fleet.Run(uncontended)
	if err != nil {
		t.Fatal(err)
	}
	if a.Reboots > c.Reboots {
		t.Logf("contended reboots %d > uncontended %d (tags browning out faster)", a.Reboots, c.Reboots)
	}
	// Both fleets simulate the same duration; contention changes what
	// happens within it, not how long it lasts (up to sub-millisecond
	// deadline overshoot, which depends on where each tag's last
	// integration quantum lands).
	if diff := a.AggregateSimSeconds - c.AggregateSimSeconds; diff < -1e-2 || diff > 1e-2 {
		t.Errorf("aggregate sim time changed: %v vs %v", a.AggregateSimSeconds, c.AggregateSimSeconds)
	}
}

// TestFleetBytesPerTag guards what one process can hold: the heap a tag of
// the benchmark's room takes once built (activity tags at 0.6–2.0 m,
// 2048/24576-cycle quanta, deferred supply). Most of it is the
// accelerometer stream's RNG register; the device stream, drawn only to
// split that one off, holds none.
func TestFleetBytesPerTag(t *testing.T) {
	res, err := fleet.Run(fleet.Config{
		Tags: 500, Duration: units.MilliSeconds(50), Seed: 1,
		Quantum: 2048, SleepQuantum: 24576, DeferSupply: true,
		NewProgram: func(int) device.Program {
			return &apps.Activity{Print: apps.NoPrint, SleepBetween: units.MilliSeconds(40)}
		},
		NewHarvester: roomHarvester,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesPerTag > 8000 {
		t.Fatalf("a room tag takes %.0f B of heap, want at most 8000", res.BytesPerTag)
	}
}
