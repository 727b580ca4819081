package fleet_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/units"
)

var printDigests = flag.Bool("print-digests", false, "print the fleet digests instead of checking them")

// fleetDigest hashes a fleet result exactly: the %+v rendering of every
// tag's result (which prints through RunResult.String), the exact bits of
// what that rendering rounds or leaves out (the times and device stats),
// the aggregate simulated seconds and the fleet-wide tallies.
func fleetDigest(res *fleet.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res.Tags)
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f64 := func(v units.Seconds) { u64(math.Float64bits(float64(v))) }
	for _, tr := range res.Tags {
		r, st := tr.Result, tr.Result.Stats
		f64(r.SimTime)
		f64(st.ActiveTime)
		f64(st.ChargeTime)
		f64(st.TetheredTime)
		u64(uint64(st.Reboots))
		u64(uint64(st.Faults))
		u64(st.UARTBytesSent)
	}
	u64(math.Float64bits(res.AggregateSimSeconds))
	u64(uint64(res.Completed))
	u64(uint64(res.Reboots))
	u64(uint64(res.Faults))
	h.Write(b)
	return h.Sum64()
}

// roomHarvester spreads tag i across 0.6–2.0 m from the reader, the room
// the fleet benchmark simulates.
func roomHarvester(i int, _ int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Noise = nil
	h.NoiseFrac = 0
	h.Distance = units.Meters(0.6 + 1.4*float64(i%97)/97.0)
	return h
}

// TestFleetPinned runs the fleet engine on the configurations its callers
// use and compares a digest of every tag's exact result with the value
// pinned below:
//
//   - "room": the fleet benchmark's room (2048/24576-cycle quanta,
//     deferred supply, activity tags sampling every 40 ms at 0.6–2.0 m);
//   - "table4-uart": the fleet-scale Table 4 build with UART printf
//     (512/16384-cycle quanta, deferred supply);
//   - "mix": testProgram's burst, ISA, halting and faulting tags;
//   - "mix-contention": the same mix sharing the reader's carrier.
//
// The equivalence tests compare the fleet with sequential runs of the same
// engine; this test catches a change that moves both. Run with
// -print-digests to see the new values after a deliberate physics or RNG
// change.
func TestFleetPinned(t *testing.T) {
	mix := fleet.Config{Tags: 24, Duration: 2, Seed: 42, NewProgram: testProgram, NewHarvester: testHarvester}
	contended := mix
	contended.Contention = fleet.ContentionConfig{Slots: 2}
	cases := []struct {
		name   string
		want   uint64
		faults bool // the config has tags that fault, so the burn phase runs
		cfg    fleet.Config
	}{
		{"room", 0xe6b3dacab04a3d61, false, fleet.Config{
			Tags: 200, Duration: 2, Seed: 1,
			Quantum: 2048, SleepQuantum: 24576, DeferSupply: true,
			NewProgram: func(int) device.Program {
				return &apps.Activity{Print: apps.NoPrint, SleepBetween: units.MilliSeconds(40)}
			},
			NewHarvester: roomHarvester,
		}},
		{"table4-uart", 0x034e5e1df4dad5a7, false, fleet.Config{
			Tags: 200, Duration: 2, Seed: 6,
			Quantum: 512, SleepQuantum: 16384, DeferSupply: true,
			NewProgram:   func(int) device.Program { return &apps.Activity{Print: apps.UARTPrint} },
			NewHarvester: experiments.FleetHarvester,
		}},
		{"mix", 0xd33ddd36aa0c1945, true, mix},
		{"mix-contention", 0x67c2ba21da893193, true, contended},
	}
	for _, c := range cases {
		res, err := fleet.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Reboots == 0 || c.faults && res.Faults == 0 {
			t.Fatalf("%s: degenerate run: %d reboots, %d faults", c.name, res.Reboots, res.Faults)
		}
		got := fleetDigest(res)
		if *printDigests {
			t.Logf("%s: %#016x (completed %d, reboots %d, faults %d)", c.name, got, res.Completed, res.Reboots, res.Faults)
			continue
		}
		if got != c.want {
			t.Errorf("%s: fleet digest %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}
