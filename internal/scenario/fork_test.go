package scenario

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// forkScripts are the session scripts the fork oracle runs: none (the
// session resumes on its own), a resume, a halt after reading every
// stream, and a memory write the firmware then runs with.
var forkScripts = []string{
	"",
	"status;resume",
	"status;trace iobus;trace watchpoints;vcap;halt",
	"write 0x4400 0x1234;resume",
}

// forkApps returns the oracle's firmware, each with the deadline of its
// template run: the built-in apps in their variants and every shipped
// assembly program. Each deadline spans several power cycles; the
// interpreted programs get shorter ones, as they cost the most to run. The
// activity app runs at 1.5 m, where it browns out even without UART load.
func forkApps(t *testing.T) []Spec {
	specs := []Spec{
		{App: "linkedlist", Assert: true, Seconds: 1},
		{App: "linkedlist", Guards: true, Seconds: 1},
		{App: "safelist", Assert: true, Seconds: 1},
		{App: "fib", Seconds: 1},
		{App: "fib", Guards: true, Seconds: 1},
		{App: "activity", Print: "none", Seconds: 1.5, Distance: 1.5},
		{App: "activity", Print: "uart", Seconds: 1.5, Distance: 1.5},
		{App: "activity", Print: "edb", Seconds: 1.5, Distance: 1.5},
		{App: "busy", Seconds: 1},
	}
	files, err := filepath.Glob("../../firmware/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no firmware found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, Spec{AsmName: filepath.Base(f), AsmSource: string(src), Seconds: 0.7})
	}
	return specs
}

// TestForkFromEveryRebootMatchesCold is the oracle for late forks: for
// each firmware, with tracing on and off, on two seeds, it takes a point
// at the turn-on and at every reboot's power-on before the first debugger
// entry, then forks every point into sessions with each script and with
// the build deadline and twice it. Every fork's output bytes and Result
// must equal a cold Run of the same session. Each session is also run
// cold with a recorder, which must change nothing and, at the build
// deadline, record the last of those points.
func TestForkFromEveryRebootMatchesCold(t *testing.T) {
	// On seed 4 a brown-out cuts a printer.s line short before 0.7 s.
	seeds := []int64{4, 42}
	traces := []bool{false, true}
	if testing.Short() || raceEnabled {
		seeds, traces = seeds[:1], traces[1:]
	}
	for _, app := range forkApps(t) {
		for _, traced := range traces {
			for _, seed := range seeds {
				base := app
				base.Trace, base.Seed = traced, seed
				base = base.withDefaults()
				name := fmt.Sprintf("%s%s/assert=%t,guards=%t,print=%s/trace=%t/seed=%d",
					base.App, base.AsmName, base.Assert, base.Guards, base.Print, traced, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					forkOracle(t, base)
				})
			}
		}
	}
}

// everyPoint runs a (defaulted) spec from cycle 0 the way execute does,
// but with no interactive handler, so the first debugger entry halts it.
// It returns a point at every power-on before the entry or the deadline,
// and the rig's clock.
func everyPoint(t *testing.T, spec Spec) ([]*point, *sim.Clock) {
	rig, _, err := buildRig(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rig.Console.SetOutput(&out)
	if spec.Trace {
		rig.EDB.TraceVcap()
	}
	var points []*point
	var lens []int
	rig.Runner.OnPowerOn = func() {
		snap, err := rig.Snapshot()
		if err != nil {
			t.Errorf("power-on %d: %v", len(points), err)
			return
		}
		points = append(points, &point{snap: snap, tally: rig.Runner.Tally()})
		lens = append(lens, out.Len())
	}
	clock := rig.Device.Clock
	rig.RunUntil(clock.ToCycles(units.Seconds(spec.Seconds)), 0)
	if len(points) == 0 {
		t.Fatal("the rig never powered on")
	}
	for i, p := range points {
		p.prefix = out.Bytes()[:lens[i]]
	}
	return points, sim.NewClock(clock.Hz())
}

func forkOracle(t *testing.T, base Spec) {
	points, clock := everyPoint(t, base)
	forks := 0
	for _, secs := range []float64{base.Seconds, 2 * base.Seconds} {
		for k, script := range forkScripts {
			spec := base
			spec.Seconds, spec.Script = secs, script
			var cold bytes.Buffer
			resC, errC := Run(spec, &cold, nil)
			if k > 0 && resC.Commands == 0 {
				// No session ran the script: the sessions of every
				// script are the same, and the first one was forked.
				continue
			}
			same := func(what string, res Result, err error, out []byte) {
				t.Helper()
				if fmt.Sprint(errC) != fmt.Sprint(err) {
					t.Fatalf("%gs %q: %s: error %v, cold %v", secs, script, what, err, errC)
				}
				if !bytes.Equal(cold.Bytes(), out) {
					t.Fatalf("%gs %q: %s diverges from a cold run\n%s", secs, script, what, firstDiff(out, cold.Bytes()))
				}
				if !reflect.DeepEqual(resC, res) {
					t.Fatalf("%gs %q: %s: result %+v, cold %+v", secs, script, what, res, resC)
				}
			}

			rig, prog, err := buildRig(spec)
			if err != nil {
				t.Fatal(err)
			}
			var rec *Template
			r, err := newRecorder(rig, spec, func(tmpl *Template) { rec = tmpl })
			if err != nil {
				t.Fatal(err)
			}
			var recorded bytes.Buffer
			resR, errR := execute(rig, prog, spec, &recorded, nil, r)
			same("the recording run", resR, errR, recorded.Bytes())
			if last := points[len(points)-1]; secs == base.Seconds && (rec == nil || !reflect.DeepEqual(rec.at, last)) {
				t.Fatalf("%gs %q: the recorder did not keep the last power-on (%d reboots)", secs, script, last.tally.Reboots)
			}

			for i, p := range points {
				tmpl := &Template{spec: base, clock: clock, at: p}
				if !tmpl.Usable(spec) {
					continue
				}
				rig, prog, err := tmpl.Fork()
				if err != nil {
					t.Fatal(err)
				}
				var warm bytes.Buffer
				resW, errW := execute(rig, prog, spec, &warm, nil, nil)
				forks++
				same(fmt.Sprintf("fork of point %d (%d reboots)", i, p.tally.Reboots), resW, errW, warm.Bytes())
			}
		}
	}
	t.Logf("%d points, %d forks", len(points), forks)
}

// firstDiff shows where two outputs part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-120, 0)
	return fmt.Sprintf("at byte %d:\n--- fork ---\n%s\n--- cold ---\n%s",
		i, got[lo:min(i+120, len(got))], want[lo:min(i+120, len(want))])
}

// TestLateForksShareTemplate runs forks of one late template concurrently,
// then checks that the template's snapshot is unchanged. Forks share the
// recorded history (event chunks, traces, output prefix) instead of
// copying it, so none may write it; under -race this also catches two
// forks appending into the same shared storage.
func TestLateForksShareTemplate(t *testing.T) {
	spec := Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: 14}
	tmpl, err := NewTemplate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.at.tally.Reboots < 8 {
		t.Fatalf("want a late point after 8 or more reboots, got %+v", tmpl.at)
	}
	// Sessions resume past the assert, so every fork appends to the
	// shared history, across chunk boundaries.
	session := spec
	session.Seconds, session.Script = 2, "status;trace iobus;write 0x4400 0x1234;resume"
	var golden bytes.Buffer
	if _, err := Run(session, &golden, nil); err != nil {
		t.Fatal(err)
	}
	digest := pointDigest(tmpl.at)

	const forks = 6
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, forks)
	errs := make([]error, forks)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tmpl.Run(session, &outs[i], nil)
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(outs[i].Bytes(), golden.Bytes()) {
			t.Fatalf("fork %d diverges from a cold run\n%s", i, firstDiff(outs[i].Bytes(), golden.Bytes()))
		}
	}
	if pointDigest(tmpl.at) != digest {
		t.Fatal("running forks changed the template's snapshot")
	}
}

// pointDigest hashes everything a fork reads from a point.
func pointDigest(p *point) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%q|%+v", *p.snap.Device, *p.snap.EDB, p.prefix, p.tally)
	return h.Sum64()
}

// TestPrinterLinesWhole: firmware/printer.s prints whole "n=XX" lines on
// every seed. A brown-out that cuts a line short loses it; it must not be
// glued onto the next boot's first line.
func TestPrinterLinesWhole(t *testing.T) {
	src, err := os.ReadFile("../../firmware/printer.s")
	if err != nil {
		t.Fatal(err)
	}
	whole := regexp.MustCompile(`^\[target\] n=[0-9A-F]{2}$`)
	seeds := int64(10)
	if testing.Short() || raceEnabled {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			spec := Spec{AsmName: "printer.s", AsmSource: string(src), Seed: seed}
			if _, err := Run(spec, &out, nil); err != nil {
				t.Fatal(err)
			}
			lines := 0
			for _, l := range strings.Split(out.String(), "\n") {
				if !strings.HasPrefix(l, "[target]") {
					continue
				}
				lines++
				if !whole.MatchString(l) {
					t.Fatalf("line %d is not whole: %q", lines, l)
				}
			}
			if lines == 0 {
				t.Fatal("printer printed nothing")
			}
		})
	}
}
