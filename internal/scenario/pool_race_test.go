package scenario_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestPoolConcurrentSessionsRaceBuild runs one spec family's sessions
// concurrently on a fresh pool. The first wave races the pool's own
// template build: each session starts cold or warm depending on when the
// build lands. The second wave forks the finished template and pops
// spares while refills run. Every session must produce byte-identical
// output, because the pool only changes how a session starts, never what
// it computes. Run under -race this covers Pool's locking between Run,
// the background build and spare refills.
func TestPoolConcurrentSessionsRaceBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation load")
	}
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 3, Seed: 42, Script: "vcap;halt"}

	var golden bytes.Buffer
	if _, err := scenario.Run(spec, &golden, nil); err != nil {
		t.Fatal(err)
	}

	p := scenario.NewPool(2)
	const sessions = 12
	wave := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		outs := make([]bytes.Buffer, sessions)
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := p.Run(spec, &outs[i], nil); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for i := range outs {
			if outs[i].String() != golden.String() {
				t.Fatalf("session %d diverged from a cold run\n--- golden ---\n%s\n--- got ---\n%s",
					i, golden.String(), outs[i].String())
			}
		}
	}

	wave() // races the build the first session starts
	p.Wait()
	wave() // forks the built template, popping and refilling spares
	p.Wait()

	m := p.Metrics()
	if m.TemplatesBuilt != 1 {
		t.Fatalf("concurrent first sightings must build one template, built %d (%+v)", m.TemplatesBuilt, m)
	}
	if m.WarmForks+m.ColdBoots != 2*sessions || m.WarmForks < sessions {
		t.Fatalf("want every second-wave session warm: %+v", m)
	}
}
