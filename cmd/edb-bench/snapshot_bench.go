package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/units"
)

// runSnapshotBench measures the warm-start machinery end to end: the time
// from the start of a session to its first prompt, cold (simulate every
// charge cycle before the assert), cold while recording the family's
// template (a pool's first session of a family), and forked at the last
// power-on before the assert (every later session of the family); and
// full-image versus dirty-page-delta snapshot sizes.
//
// The session is Fig. 7's linked-list assert with tracing on, on a seed
// whose assert fires after 8 reboots (the perfbench session workload keeps
// seeds like it). Each variant answers the first prompt with halt, so the
// timed span is the session start plus the simulation up to the assert.
// Delta sizes use the default 1 m safelist rig, whose ~100 ms charge/run
// duty cycle makes every 100 ms window a representative steady-state
// slice of intermittent execution (including the reboot, which dirties
// all of SRAM).
func runSnapshotBench(o *jobOut, opt options) error {
	trials := 25
	intervals := 20
	if opt.quick {
		trials, intervals = 5, 8
	}

	spec := scenario.Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: 14, Interactive: true}
	tmpl, err := scenario.NewTemplate(spec)
	if err != nil {
		return err
	}
	forkS, forkReboots := tmpl.ForkPoint()
	if forkReboots == 0 {
		return fmt.Errorf("snapshot bench invalid: the template forks at turn-on")
	}

	ms, err := medianPromptMS(trials,
		func(p scenario.PromptFunc) error {
			_, err := scenario.Run(spec, io.Discard, p)
			return err
		},
		// A fresh pool's first session of the family runs cold and
		// records the template.
		func(p scenario.PromptFunc) error {
			pool := scenario.NewPool()
			_, err := pool.Run(spec, io.Discard, p)
			if m := pool.Metrics(); err == nil && m.TemplatesBuilt != 1 {
				err = fmt.Errorf("the first session recorded %d templates", m.TemplatesBuilt)
			}
			return err
		},
		func(p scenario.PromptFunc) error {
			_, err := tmpl.Run(spec, io.Discard, p)
			return err
		})
	if err != nil {
		return err
	}
	coldMS, recordMS, lateMS := ms[0], ms[1], ms[2]

	// Snapshot sizes: arm a baseline on a forked 1 m rig mid-run, then take
	// a dirty-page delta after each 100 ms steady-state window.
	dspec := scenario.Spec{App: "safelist", Seconds: 1, Seed: 42}
	dtmpl, err := scenario.NewTemplate(dspec)
	if err != nil {
		return err
	}
	rig, _, err := dtmpl.Fork()
	if err != nil {
		return err
	}
	clk := rig.Device.Clock
	start, _ := dtmpl.ForkPoint()
	base := start + 1.0
	if _, err := rig.RunUntil(clk.ToCycles(units.Seconds(base)), 0); err != nil {
		return fmt.Errorf("delta rig warmup: %w", err)
	}
	fullBytes, err := rig.EDB.SnapState()
	if err != nil {
		return err
	}
	deltas := make([]float64, 0, intervals)
	for i := 1; i <= intervals; i++ {
		deadline := clk.ToCycles(units.Seconds(base + 0.1*float64(i)))
		if _, err := rig.RunUntil(deadline, 0); err != nil {
			return fmt.Errorf("delta window %d: %w", i, err)
		}
		ds, err := rig.EDB.SnapDelta()
		if err != nil {
			return err
		}
		sum := 0
		for _, d := range ds {
			sum += d.Bytes()
		}
		deltas = append(deltas, float64(sum))
	}
	deltaMedian := median(deltas)
	if deltaMedian <= 0 {
		return fmt.Errorf("delta bench invalid: median steady-state delta is %.0f bytes", deltaMedian)
	}

	sizeRatio := float64(fullBytes) / deltaMedian
	o.metric("snap_full_bytes", float64(fullBytes))
	o.metric("snap_delta_bytes_median", deltaMedian)
	o.metric("snap_size_ratio", sizeRatio)
	o.metric("snap_fork_point_s", forkS)
	o.metric("snap_fork_point_reboots", float64(forkReboots))
	o.metric("snap_prompt_cold_ms", coldMS)
	o.metric("snap_prompt_record_ms", recordMS)
	o.metric("snap_prompt_late_ms", lateMS)
	o.metric("snap_prompt_speedup_late", coldMS/lateMS)

	var b strings.Builder
	fmt.Fprintf(&b, "warm-start sessions (linked list + assert, trace on, seed %d):\n", spec.Seed)
	fmt.Fprintf(&b, "  time to the first prompt (the assert fires after %d reboots), median of %d:\n", forkReboots, trials)
	row := func(label string, ms float64) {
		fmt.Fprintf(&b, "    %-36s %8.3f ms (%.1fx)\n", label, ms, coldMS/ms)
	}
	row("cold", coldMS)
	row("cold, recording the template", recordMS)
	row(fmt.Sprintf("fork at last power-on (%.3f s)", forkS), lateMS)
	fmt.Fprintf(&b, "  snapshot size (1 m tag, 100 ms windows):\n")
	fmt.Fprintf(&b, "    full image %d B   steady-state delta %.0f B (%.1fx smaller)\n",
		fullBytes, deltaMedian, sizeRatio)
	o.text = b.String()
	return nil
}

// haltAtFirstPrompt returns a prompt callback that calls at (when non-nil)
// and ends the session with halt.
func haltAtFirstPrompt(at func()) scenario.PromptFunc {
	return func() (string, bool) {
		if at != nil {
			at()
		}
		return "halt", true
	}
}

// medianPromptMS times sessions from their start to their first prompt,
// trials times for each of runs, and returns each run's median in
// milliseconds. The runs take turns within every round, so a change in
// the host's speed during the measurement falls on all of them alike. A
// run must drive its session with the prompt callback it is given.
func medianPromptMS(trials int, runs ...func(scenario.PromptFunc) error) ([]float64, error) {
	times := make([][]float64, len(runs))
	for i := 0; i < trials; i++ {
		for k, run := range runs {
			var took float64
			t0 := time.Now()
			if err := run(haltAtFirstPrompt(func() { took = msSince(t0) })); err != nil {
				return nil, fmt.Errorf("variant %d: %w", k, err)
			}
			if took == 0 {
				return nil, fmt.Errorf("variant %d: the session never prompted", k)
			}
			times[k] = append(times[k], took)
		}
	}
	out := make([]float64, len(runs))
	for k := range runs {
		out[k] = median(times[k])
	}
	return out, nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
