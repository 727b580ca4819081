package scenario_test

import (
	"bytes"
	"strings"
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
// for a spec, builds the template in the background, then serves later
// sessions warm — all with byte-identical output.
func TestPoolServesWarmAfterColdFirst(t *testing.T) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Script: "vcap;status;halt"}
	pool := scenario.NewPool(2)

	var first bytes.Buffer
	if _, err := pool.Run(spec, &first, nil); err != nil {
		t.Fatal(err)
	}
	pool.Wait() // template build + spare pre-forks settle

	var second, third bytes.Buffer
	if _, err := pool.Run(spec, &second, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Run(spec, &third, nil); err != nil {
		t.Fatal(err)
	}
	pool.Wait()

	if first.String() != second.String() || first.String() != third.String() {
		t.Fatal("pool-served sessions diverge from the cold first session")
	}
	m := pool.Metrics()
	if m.ColdBoots != 1 || m.TemplatesBuilt != 1 || m.WarmForks != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.SparePops == 0 {
		t.Fatalf("expected at least one pre-forked spare to be used: %+v", m)
	}
}

// TestPoolNegativeCache: untemplatable specs are served cold forever and
// the failed warm-up is not retried.
func TestPoolNegativeCache(t *testing.T) {
	spec := scenario.Spec{App: "rfid", Seconds: 2, Seed: 42}
	pool := scenario.NewPool(1)
	var a, b bytes.Buffer
	if _, err := pool.Run(spec, &a, nil); err != nil {
		t.Fatal(err)
	}
	pool.Wait()
	if _, err := pool.Run(spec, &b, nil); err != nil {
		t.Fatal(err)
	}
	pool.Wait()
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
