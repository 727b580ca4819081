package device_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/units"
)

// runSliced is RunFor driven through Start and Step in fixed slices, the
// way the fleet kernel drives each tag.
func runSliced(r *device.Runner, d, slice units.Seconds) (device.RunResult, error) {
	origin := r.D.Clock.Now()
	r.D.SetDeadline(origin + r.D.Clock.ToCycles(d))
	defer r.D.ClearDeadline()
	r.Start()
	step := r.D.Clock.ToCycles(slice)
	for stopAt := origin + step; !r.Step(stopAt); stopAt += step {
	}
	return r.Result(origin)
}

// TestStepMatchesRunUntil: a run paused every simulated millisecond gives
// the same result and error as the same run unpaused, for a burst app, an
// ISA app, an app that faults on every boot and a device that never
// powers on. Each runner runs two windows back to back, so the second
// also checks that every run starts at charge entry with zeroed tallies.
func TestStepMatchesRunUntil(t *testing.T) {
	cases := []struct {
		name  string
		setup func() *device.Runner
		check func(t *testing.T, res device.RunResult, err error)
	}{
		{"burst", func() *device.Runner {
			h := energy.NewRFHarvester()
			h.Distance = 1.4
			return device.NewRunner(device.NewWISP5(h, 3), &apps.Activity{Print: apps.NoPrint})
		}, func(t *testing.T, res device.RunResult, err error) {
			if err != nil || res.Reboots == 0 || !res.DeadlineHit {
				t.Errorf("want reboots up to the deadline: %v, %v", res, err)
			}
		}},
		{"isa", func() *device.Runner {
			// The count lives in FRAM, so it survives the reboots.
			return device.NewRunner(device.NewWISP5(energy.NewRFHarvester(), 4), isa.NewProgram("counts-then-halts", `
	.equ HALT, 0x012C
main:	add #1, &count
	cmp #40000, &count
	jne main
	mov #0, &count
	mov #1, &HALT
count:	.word 0
`))
		}, func(t *testing.T, res device.RunResult, err error) {
			if err != nil || !res.Completed || res.Reboots == 0 {
				t.Errorf("want completion after reboots: %v, %v", res, err)
			}
		}},
		{"fault", func() *device.Runner {
			return device.NewRunner(device.NewWISP5(energy.NewRFHarvester(), 5), isa.NewProgram("counts-then-faults", `
main:	mov #0, r5
loop:	add #1, r5
	cmp #200, r5
	jne loop
	mov &0x0002, r6
	jmp main
`))
		}, func(t *testing.T, res device.RunResult, err error) {
			if err != nil || res.Faults < 2 || res.Reboots < res.Faults-1 {
				t.Errorf("want a fault and a brown-out on every boot: %v, %v", res, err)
			}
		}},
		{"never-powered", func() *device.Runner {
			r := device.NewRunner(device.NewWISP5(energy.NullHarvester{}, 6), &apps.Activity{Print: apps.NoPrint})
			r.MaxChargeTime = units.MilliSeconds(50)
			return r
		}, func(t *testing.T, res device.RunResult, err error) {
			if err != device.ErrNeverPowered {
				t.Errorf("want ErrNeverPowered: %v, %v", res, err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			whole, sliced := c.setup(), c.setup()
			for _, r := range []*device.Runner{whole, sliced} {
				if err := r.Flash(); err != nil {
					t.Fatal(err)
				}
			}
			prevReboots := 0
			for window := 0; window < 2; window++ {
				want, wantErr := whole.RunFor(1)
				got, gotErr := runSliced(sliced, 1, units.MilliSeconds(1))
				c.check(t, want, wantErr)
				if want.Reboots != want.Stats.Reboots-prevReboots {
					t.Errorf("window %d: %d reboots reported, %d on the device", window, want.Reboots, want.Stats.Reboots-prevReboots)
				}
				prevReboots = want.Stats.Reboots
				if !reflect.DeepEqual(got, want) || gotErr != wantErr {
					t.Fatalf("window %d: sliced run diverged:\n got %+v, %v\nwant %+v, %v",
						window, got, gotErr, want, wantErr)
				}
			}
		})
	}
}
