package scenario_test

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestWarmForkMatchesColdRun is the golden determinism proof for the
// warm-start path: a session forked from a pre-warmed template produces
// output byte-for-byte identical to a cold boot of the same spec —
// interactive sessions, traces, summary times and all.
func TestWarmForkMatchesColdRun(t *testing.T) {
	for _, spec := range []scenario.Spec{
		{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Script: "vcap;status;halt"},
		{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Script: "snap;read 0x4400 8;restore;resume", Trace: true},
		{App: "fib", Seconds: 4, Seed: 7, Script: "vcap;resume"},
		{App: "busy", Seconds: 3, Seed: 1},
	} {
		var cold bytes.Buffer
		resC, err := scenario.Run(spec, &cold, nil)
		if err != nil {
			t.Fatalf("%s: cold run: %v", spec.App, err)
		}

		tmpl, err := scenario.NewTemplate(spec)
		if err != nil {
			t.Fatalf("%s: template: %v", spec.App, err)
		}
		var warm bytes.Buffer
		resW, err := tmpl.Run(spec, &warm, nil)
		if err != nil {
			t.Fatalf("%s: warm run: %v", spec.App, err)
		}

		if cold.String() != warm.String() {
			t.Fatalf("%s: warm fork output diverges from cold run\n--- cold ---\n%s\n--- warm ---\n%s",
				spec.App, cold.String(), warm.String())
		}
		if resC.SimCycles != resW.SimCycles || resC.Run.Reboots != resW.Run.Reboots ||
			resC.Commands != resW.Commands || resC.ExitCode != resW.ExitCode {
			t.Fatalf("%s: results diverge: cold %+v warm %+v", spec.App, resC, resW)
		}
	}
}

// TestTemplateForkReuse: one template serves many forks, and forks are
// independent — running one does not perturb the next.
func TestTemplateForkReuse(t *testing.T) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Script: "vcap;halt"}
	tmpl, err := scenario.NewTemplate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if _, err := tmpl.Run(spec, &first, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var again bytes.Buffer
		if _, err := tmpl.Run(spec, &again, nil); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("fork %d diverged from fork 0", i+1)
		}
	}
	if tmpl.SnapshotBytes() == 0 {
		t.Fatal("template must report its memory image size")
	}
}

// TestTemplateRejectsUncoverableSpecs: reader rigs and too-short deadlines
// cannot be templated or served warm.
func TestTemplateRejectsUncoverableSpecs(t *testing.T) {
	if _, err := scenario.NewTemplate(scenario.Spec{App: "rfid", Seconds: 5}); err == nil {
		t.Fatal("reader spec must not template")
	}
	spec := scenario.Spec{App: "busy", Seconds: 5, Seed: 1}
	tmpl, err := scenario.NewTemplate(spec)
	if err != nil {
		t.Fatal(err)
	}
	short := spec
	short.Seconds = 1e-9
	if tmpl.Usable(short) {
		t.Fatal("a deadline before the warm-up point must not be served warm")
	}
	other := spec
	other.Seed = 2
	if tmpl.Usable(other) {
		t.Fatal("a different seed must not reuse the template")
	}
	longer := spec
	longer.Seconds = 9
	if !tmpl.Usable(longer) {
		t.Fatal("only the duration changed; the template must cover it")
	}
}

// TestPoolServesWarmAfterColdFirst: the pool cold-boots the first session
// for a spec, which records the template as it runs, then serves later
// sessions by forking it — all with byte-identical output.
func TestPoolServesWarmAfterColdFirst(t *testing.T) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Script: "vcap;status;halt"}
	pool := scenario.NewPool()

	var first bytes.Buffer
	if _, err := pool.Run(spec, &first, nil); err != nil {
		t.Fatal(err)
	}

	var second, third bytes.Buffer
	if _, err := pool.Run(spec, &second, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Run(spec, &third, nil); err != nil {
		t.Fatal(err)
	}

	if first.String() != second.String() || first.String() != third.String() {
		t.Fatal("pool-served sessions diverge from the cold first session")
	}
	m := pool.Metrics()
	if m.ColdBoots != 1 || m.TemplatesBuilt != 1 || m.WarmForks != 2 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestPoolNegativeCache: untemplatable specs are served cold forever and
// the failed warm-up is not retried.
func TestPoolNegativeCache(t *testing.T) {
	spec := scenario.Spec{App: "rfid", Seconds: 2, Seed: 42}
	pool := scenario.NewPool()
	var a, b bytes.Buffer
	if _, err := pool.Run(spec, &a, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Run(spec, &b, nil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("cold-served rfid sessions must still be deterministic")
	}
	m := pool.Metrics()
	if m.ColdBoots != 2 || m.Untemplatable != 1 || m.WarmForks != 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if !strings.Contains(a.String(), "run summary") {
		t.Fatalf("rfid run output missing summary:\n%s", a.String())
	}
}

// TestSpecHashStability: SpecHash keys on the simulation-shaping fields
// only — per-session fields (Seconds, Script, Interactive) hash equal, any
// sim-shaping change hashes different.
func TestSpecHashStability(t *testing.T) {
	base := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Script: "vcap;halt"}
	alt := base
	alt.Seconds = 9
	alt.Script = "status;halt"
	alt.Interactive = true
	if scenario.SpecHash(base) != scenario.SpecHash(alt) {
		t.Fatal("per-session fields must not change SpecHash")
	}
	for _, mut := range []func(*scenario.Spec){
		func(s *scenario.Spec) { s.App = "fib" },
		func(s *scenario.Spec) { s.Seed = 43 },
		func(s *scenario.Spec) { s.Trace = true },
		func(s *scenario.Spec) { s.Guards = true },
	} {
		m := base
		mut(&m)
		if scenario.SpecHash(base) == scenario.SpecHash(m) {
			t.Fatalf("sim-shaping mutation %+v must change SpecHash", m)
		}
	}
	if scenario.TemplateKey(base) != scenario.TemplateKey(alt) {
		t.Fatal("TemplateKey must ignore per-session fields")
	}
}

// TestPoolRetainedBytes caps the live heap a pool holds for four Fig. 7
// families (linked list, assert, tracing on) whose asserts fire after 8–9
// reboots. Each family keeps one template: a snapshot at the last power-on
// before the assert, with its ~22k events (16 B each), ~9k Vcap samples
// and a 49,920 B memory image, which every fork shares. The bound is
// 3 MiB; about 2.23 MB is measured, against 2.75 MB when the pool also
// kept two pre-forked rigs per family, so a change that holds rigs per
// family again fails it.
func TestPoolRetainedBytes(t *testing.T) {
	const bound = 3 << 20
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	pool := scenario.NewPool()
	for _, seed := range []int64{3, 14, 17, 19} {
		spec := scenario.Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: seed, Script: "halt"}
		if _, err := pool.Run(spec, io.Discard, nil); err != nil {
			t.Fatal(err)
		}
	}
	retained := int64(heap()) - int64(before)
	if m := pool.Metrics(); m.TemplatesBuilt != 4 {
		t.Fatalf("want 4 templates: %+v", m)
	}
	t.Logf("pool retains %.2f MB", float64(retained)/(1<<20))
	if retained > bound {
		t.Fatalf("pool retains %d B, bound %d B", retained, bound)
	}
	runtime.KeepAlive(pool)
}

// TestRecordingAllocationBounded: a pool's first session of a family
// records the template, snapshotting the rig at every power-on before the
// first debugger entry. A session that never enters runs to its deadline
// that way, here through about 600 power-ons. Each snapshot reuses the
// buffers of the one it replaces, so recording may allocate a bounded
// amount more than the same cold session: about two snapshots (a 49,920 B
// memory image and a few 4,856 B RNG registers each), not one per
// power-on. About 170 KB is measured; taking a fresh snapshot at each
// power-on allocates 36 MB more.
func TestRecordingAllocationBounded(t *testing.T) {
	const bound = 256 << 10
	spec := scenario.Spec{App: "linkedlist", Trace: true, Seconds: 60, Seed: 42}
	alloc := func(f func() (scenario.Result, error)) (uint64, scenario.Result) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	cold, res := alloc(func() (scenario.Result, error) { return scenario.Run(spec, io.Discard, nil) })
	pool := scenario.NewPool()
	recorded, _ := alloc(func() (scenario.Result, error) { return pool.Run(spec, io.Discard, nil) })
	if m := pool.Metrics(); m.TemplatesBuilt != 1 || res.Run.Reboots < 500 {
		t.Fatalf("want one template after 500 or more reboots: %+v, %d reboots", m, res.Run.Reboots)
	}
	extra := int64(recorded) - int64(cold)
	t.Logf("%d reboots: recording allocated %.1f KB more than a cold run", res.Run.Reboots, float64(extra)/1024)
	if extra > bound {
		t.Fatalf("recording allocated %d B more than a cold run, bound %d B", extra, bound)
	}
}

// TestPoolForksWhileRecordingSessionRuns: a pool publishes a family's
// template at the recording session's first debugger entry, and that
// session runs on while others fork the template. The recording rig keeps
// appending to the event log and Vcap trace the snapshot shares, past the
// snapshot's end; no fork may see any of it. Under -race this also catches
// either side writing what the other reads.
func TestPoolForksWhileRecordingSessionRuns(t *testing.T) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 2, Seed: 14, Script: "status;resume"}
	first := spec
	first.Script = ""
	resume := func() (string, bool) { return "resume", true }
	var golden, firstGolden bytes.Buffer
	if _, err := scenario.Run(spec, &golden, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(first, &firstGolden, resume); err != nil {
		t.Fatal(err)
	}

	pool := scenario.NewPool()
	const forks = 4
	outs := make([]bytes.Buffer, forks)
	errs := make([]error, forks)
	var wg sync.WaitGroup
	started := false
	var firstOut bytes.Buffer
	_, err := pool.Run(first, &firstOut, func() (string, bool) {
		if !started {
			started = true
			for i := range outs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = pool.Run(spec, &outs[i], nil)
				}(i)
			}
		}
		return resume()
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if firstOut.String() != firstGolden.String() {
		t.Fatal("the recording session diverges from a cold run")
	}
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if outs[i].String() != golden.String() {
			t.Fatalf("fork %d diverges from a cold run", i)
		}
	}
	if m := pool.Metrics(); m.TemplatesBuilt != 1 || m.ColdBoots != 1 || m.WarmForks != forks {
		t.Fatalf("want one recording cold session and %d forks: %+v", forks, m)
	}
}
