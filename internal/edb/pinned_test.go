package edb_test

import (
	"encoding/binary"
	"flag"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/units"
)

var printDigests = flag.Bool("print-digests", false, "print the step-path digests instead of checking them")

// digest accumulates exact bit patterns. The result files round voltages
// to a few digits and the capacitor's dynamics are stable, so a reordered
// floating-point operation in the step moves the voltage trajectory by
// ulps that never reach them; the exact bits of the sampled trace and of
// the final supply state show it.
type digest struct{ b []byte }

func (d *digest) u64(v uint64)  { d.b = binary.LittleEndian.AppendUint64(d.b, v) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) supply(s *energy.Supply) {
	d.f64(float64(s.Voltage()))
	d.f64(float64(s.Harvested()))
	d.f64(float64(s.Consumed()))
	d.u64(uint64(s.State()))
}

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.b)
	return h.Sum64()
}

// TestStepPathBitsPinned runs the per-Env-call energy step for a few
// simulated seconds on each path it takes and compares a digest of the
// exact bits it produced with the value pinned below:
//
//   - "edb": the Fig. 7 linked list under EDB (probe leakage, ADC
//     sampler, app-pin events) on the noisy RF harvester, one supply step
//     per Env call;
//   - "deferred": the same app on a fleet-style device (DeferSupply,
//     coarse quantum) behind a noise-free harvester, so charging takes the
//     analytic jump and execution the batched supply flush.
//
// A change that should not move the simulation must leave both digests
// as they are. Run with -print-digests to see the new values after a
// deliberate physics or RNG change.
func TestStepPathBitsPinned(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		run  func(t *testing.T, d *digest)
	}{
		{"edb", 0xc378aaae60ae1a3e, func(t *testing.T, dg *digest) {
			d := device.NewWISP5(energy.NewRFHarvester(), 42)
			e := edb.New(edb.DefaultConfig())
			e.Attach(d)
			vcap := e.TraceVcap()
			r := device.NewRunner(d, &apps.LinkedList{})
			if err := r.Flash(); err != nil {
				t.Fatal(err)
			}
			res, err := r.RunFor(3)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reboots == 0 || len(vcap.Samples) == 0 {
				t.Fatalf("degenerate run: %d reboots, %d samples", res.Reboots, len(vcap.Samples))
			}
			for _, s := range vcap.Samples {
				dg.u64(uint64(s.At))
				dg.f64(s.V)
			}
			dg.supply(d.Supply)
			dg.u64(uint64(d.Clock.Now()))
			dg.u64(uint64(res.Reboots))
			dg.u64(uint64(e.Events().Count("")))
		}},
		{"deferred", 0x0c10581cfd63a04e, func(t *testing.T, dg *digest) {
			h := energy.NewRFHarvester()
			h.Noise, h.NoiseFrac = nil, 0
			h.Distance = 1.4
			cfg := device.DefaultConfig()
			cfg.Seed = 42
			cfg.Quantum = 2048
			cfg.DeferSupply = true
			d := device.New(cfg, energy.WISP5Supply(h))
			r := device.NewRunner(d, &apps.LinkedList{})
			r.OnReboot = func(int) { dg.supply(d.Supply) }
			if err := r.Flash(); err != nil {
				t.Fatal(err)
			}
			res, err := r.RunFor(units.Seconds(3))
			if err != nil {
				t.Fatal(err)
			}
			if res.Reboots == 0 {
				t.Fatal("degenerate run: no reboots")
			}
			dg.supply(d.Supply)
			dg.u64(uint64(d.Clock.Now()))
			dg.u64(uint64(res.Reboots))
			dg.f64(float64(res.Stats.ActiveTime))
			dg.f64(float64(res.Stats.ChargeTime))
		}},
	}
	for _, c := range cases {
		var dg digest
		c.run(t, &dg)
		got := dg.sum()
		if *printDigests {
			t.Logf("%s: %#016x", c.name, got)
			continue
		}
		if got != c.want {
			t.Errorf("%s: step-path digest %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}
