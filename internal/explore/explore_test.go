package explore

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/memsim"
)

// listbugRig is the canonical buggy workload: the unguarded linked list
// whose remove/append sequence holds the Fig. 3 WAR inconsistency.
func listbugRig(guards bool) func() (*device.Device, device.Program, error) {
	return func() (*device.Device, device.Program, error) {
		return core.ExploreTarget(&apps.LinkedList{GuardIterations: guards}, 42)
	}
}

func smallConfig(guards bool) Config {
	return Config{
		NewRig:        listbugRig(guards),
		Mode:          ModeWrite,
		MaxDepth:      2,
		MaxCandidates: 8,
		MaxStates:     64,
		CheckHashes:   true,
	}
}

// TestDeterministicAcrossWorkers is the tentpole invariant: the merged
// report — states, branches, outcomes, and every violation's branch trace —
// must be bit-for-bit identical at any worker count. Run under -race this
// also stresses the pool handoff.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var reports []*Report
	for _, workers := range []int{1, 4} {
		cfg := smallConfig(false)
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		reports = append(reports, rep)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("reports diverge across worker counts:\n1 worker:\n%s\n4 workers:\n%s",
			reports[0].Format(), reports[1].Format())
	}
	rep := reports[0]
	if rep.Clean() {
		t.Fatal("unguarded linked list must exhibit WAR violations")
	}
	for _, v := range rep.Violations {
		if !strings.HasPrefix(v.Trace, "root") || v.Cand < 1 || v.Count < 1 {
			t.Fatalf("malformed violation: %+v", v)
		}
	}
	if rep.HashChecks == 0 {
		t.Fatal("CheckHashes performed no cross-checks")
	}
	if rep.Format() != reports[1].Format() {
		t.Fatal("formatted reports differ")
	}
}

// TestGuardedBuildClean: wrapping each iteration in an energy guard removes
// every failure candidate inside the loop body, so no reachable failure
// point splits the read-modify-write sequences.
func TestGuardedBuildClean(t *testing.T) {
	rep, err := Run(smallConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("guarded build must verify clean:\n%s", rep.Format())
	}
	if rep.States == 0 || rep.Branches == 0 {
		t.Fatalf("guarded exploration made no progress: %+v", rep)
	}
	if !strings.Contains(rep.Format(), "no WAR violations detected") {
		t.Fatal("format")
	}
}

// TestSafelistCommitBoundaries: the task-runtime build exposes its commit
// machinery through CommitSignaler, so the runtime's versioning writes stay
// out of the WAR window and each boundary becomes a failure candidate. The
// intermittence-safe app must verify clean.
func TestSafelistCommitBoundaries(t *testing.T) {
	cfg := smallConfig(false)
	cfg.NewRig = func() (*device.Device, device.Program, error) {
		return core.ExploreTarget(&apps.SafeLinkedList{}, 42)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("task-boundary build must verify clean:\n%s", rep.Format())
	}
	if rep.States < 2 {
		t.Fatalf("commit exits produced no forks: %+v", rep)
	}
}

// TestPageModeCoarserButSound: page mode forks at the first write per clean
// page, so it explores no more branches per segment than write mode but
// still runs the same WAR detector over every probe.
func TestPageModeCoarserButSound(t *testing.T) {
	w := smallConfig(false)
	rep1, err := Run(w)
	if err != nil {
		t.Fatal(err)
	}
	p := smallConfig(false)
	p.Mode = ModePage
	rep2, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Clean() {
		t.Fatal("page mode must still flag the WAR bug (detection is probe-based)")
	}
	if rep2.Branches > rep1.Branches {
		t.Fatalf("page mode explored %d branches vs write mode's %d", rep2.Branches, rep1.Branches)
	}
}

// replay reaches child k the slow way, as an oracle for the single pass: a
// segment capped at k stops at the very call where a power failure at
// candidate k would unwind, so DiffDirty after the unwind reads the FRAM
// that failure leaves. It returns child k, hashed from the full image, and
// that image. w must own its Config, because the cap is lowered for the
// run.
func replay(t *testing.T, w *worker, st ShardState, k int) (Child, []byte) {
	t.Helper()
	limit := w.cfg.MaxCandidates
	w.cfg.MaxCandidates = k
	e, err := w.expand(st, false)
	w.cfg.MaxCandidates = limit
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != "capped" || e.Cands != k {
		t.Fatalf("state %d: candidate %d not reached (outcome %s after %d candidates)",
			st.ID, k, e.Outcome, e.Cands)
	}
	delta, err := w.fram.DiffDirty(w.baseFRAM)
	if err != nil {
		t.Fatal(err)
	}
	img := w.fram.Snapshot()
	return Child{K: k, Hash: imageHash(pageHashes(img)), Delta: delta}, img
}

// TestSinglePassMatchesReplay: the single pass captures each child inside
// the segment, at its candidate, and shares the delta of a parent or
// earlier sibling with the same hash; the replay oracle re-runs the
// segment up to the candidate and diffs after the unwind. For every state
// of a breadth-first walk, each child must equal the oracle's, and
// capturing must not change what the segment reports.
func TestSinglePassMatchesReplay(t *testing.T) {
	progs := []struct {
		name string
		prog func() device.Program
	}{
		{"unguarded", func() device.Program { return &apps.LinkedList{} }},
		{"guarded", func() device.Program { return &apps.LinkedList{GuardIterations: true} }},
		{"safelist", func() device.Program { return &apps.SafeLinkedList{} }},
	}
	const maxStates = 150
	for _, p := range progs {
		for _, mode := range []string{ModeWrite, ModePage} {
			t.Run(p.name+"/"+mode, func(t *testing.T) {
				cfg := smallConfig(false)
				cfg.Mode = mode
				cfg.NewRig = func() (*device.Device, device.Program, error) {
					return core.ExploreTarget(p.prog(), 42)
				}
				if err := cfg.applyDefaults(); err != nil {
					t.Fatal(err)
				}
				oracleCfg := cfg
				w, err := newWorker(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				o, err := newWorker(&oracleCfg)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[uint64]bool{w.baseHash: true}
				queue := []ShardState{{Delta: &memsim.Delta{Region: "FRAM"}, Hash: w.baseHash}}
				branches := 0
				for n := 0; n < len(queue) && n < maxStates; n++ {
					st := queue[n]
					e, err := w.expand(st, true)
					if err != nil {
						t.Fatal(err)
					}
					plain, err := o.expand(st, false)
					if err != nil {
						t.Fatal(err)
					}
					if e.Outcome != plain.Outcome || e.Cands != plain.Cands ||
						e.Asserts != plain.Asserts || !reflect.DeepEqual(e.Hazard, plain.Hazard) {
						t.Fatalf("state %d: capturing changed the segment: %+v, without capture %+v", st.ID, e, plain)
					}
					if len(e.Children) != e.Cands || e.HashChecks != e.Cands {
						t.Fatalf("state %d: %d children and %d hash checks for %d candidates",
							st.ID, len(e.Children), e.HashChecks, e.Cands)
					}
					for i, got := range e.Children {
						want, _ := replay(t, o, st, i+1)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("state %d child %d: single pass K=%d hash %016x %+v, replay K=%d hash %016x %+v",
								st.ID, i+1, got.K, got.Hash, *got.Delta, want.K, want.Hash, *want.Delta)
						}
						branches++
						if !seen[got.Hash] {
							seen[got.Hash] = true
							queue = append(queue, ShardState{ID: len(queue), Depth: st.Depth + 1, Hash: got.Hash, Delta: got.Delta})
						}
					}
				}
				if branches == 0 || len(queue) < 2 {
					t.Fatalf("walk made no progress: %d branches, %d states", branches, len(queue))
				}
				t.Logf("%d states expanded, %d branches checked", min(len(queue), maxStates), branches)
			})
		}
	}
}

// TestColdBootReplayByteIdentity is the fork-tree determinism stress test:
// a worker that has run arbitrary other segments (deep revert chains, event
// queue churn, RNG perturbation) must reproduce a branch byte-for-byte
// identically to a fresh worker replaying the same candidate path from a
// cold boot — same delta encoding, same state hash, same FRAM image.
func TestColdBootReplayByteIdentity(t *testing.T) {
	cfg := smallConfig(false)
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	coldCfg := cfg
	dirtyW, err := newWorker(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldW, err := newWorker(&coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	if dirtyW.baseHash != coldW.baseHash {
		t.Fatal("NewRig is not deterministic")
	}

	root := ShardState{ID: 0, Delta: &memsim.Delta{Region: "FRAM"}, Hash: dirtyW.baseHash}

	// Walk three failures deep on the dirty worker, polluting it with
	// unrelated segments between every step.
	pollute := func(w *worker, st ShardState) {
		for k := 2; k <= 3; k++ {
			replay(t, w, st, k)
		}
		if _, err := w.expand(st, true); err != nil { // full single pass
			t.Fatal(err)
		}
	}
	path := []int{1, 2, 1}
	cur := root
	var want []Child
	var wantImages [][]byte
	for _, k := range path {
		pollute(dirtyW, cur)
		child, img := replay(t, dirtyW, cur, k)
		want = append(want, child)
		wantImages = append(wantImages, img)
		cur = ShardState{ID: cur.ID + 1, Depth: cur.Depth + 1, Delta: child.Delta, Hash: child.Hash}
	}

	// Cold replay of the same path on the fresh worker.
	cur = root
	for i, k := range path {
		child, img := replay(t, coldW, cur, k)
		if child.Hash != want[i].Hash {
			t.Fatalf("step %d: cold hash %016x != dirty hash %016x", i, child.Hash, want[i].Hash)
		}
		if !reflect.DeepEqual(child.Delta, want[i].Delta) {
			t.Fatalf("step %d: delta encodings differ", i)
		}
		if !bytes.Equal(img, wantImages[i]) {
			t.Fatalf("step %d: FRAM images differ", i)
		}
		// The image must equal baseline+delta exactly: the delta derives
		// from the dirty bitmap, so a write the bitmap missed shows up as
		// a reconstruction mismatch here.
		recon := append([]byte(nil), coldW.baseFRAM...)
		for _, pg := range child.Delta.Pages {
			copy(recon[pg.Off:pg.Off+len(pg.Data)], pg.Data)
		}
		if !bytes.Equal(recon, wantImages[i]) {
			t.Fatalf("step %d: baseline+delta reconstruction differs from the live image", i)
		}
		cur = ShardState{ID: cur.ID + 1, Depth: cur.Depth + 1, Delta: child.Delta, Hash: child.Hash}
	}
}

// TestRigWithDebuggerRejected: the explorer installs its own probe; a rig
// that already carries EDB is a configuration error, not a silent override.
func TestRigWithDebuggerRejected(t *testing.T) {
	cfg := smallConfig(false)
	cfg.NewRig = func() (*device.Device, device.Program, error) {
		p := &apps.LinkedList{}
		rig, err := core.NewRig(p, core.WithSeed(42))
		if err != nil {
			return nil, nil, err
		}
		return rig.Device, p, nil
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "WithoutEDB") {
		t.Fatalf("err = %v, want debugger-attached rejection", err)
	}
}

// TestTruncationReported: a one-state budget must mark the report truncated
// rather than silently narrowing the search.
func TestTruncationReported(t *testing.T) {
	cfg := smallConfig(false)
	cfg.MaxStates = 1
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("MaxStates=1 must truncate")
	}
	if rep.States != 1 {
		t.Fatalf("states = %d, want 1", rep.States)
	}
}
