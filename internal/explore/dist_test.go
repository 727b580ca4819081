package explore

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/device"
)

// TestRigPoolSlotLeak: a failed lazy worker build must release its reserved
// pool slot, so the next get retries the build instead of waiting forever
// for a worker that was never created. NewRig succeeds for the eager first
// worker, fails once, then succeeds again.
func TestRigPoolSlotLeak(t *testing.T) {
	calls := 0
	cfg := smallConfig(false)
	cfg.Workers = 2
	inner := cfg.NewRig
	cfg.NewRig = func() (*device.Device, device.Program, error) {
		calls++
		if calls == 2 {
			return nil, nil, fmt.Errorf("transient rig failure")
		}
		return inner()
	}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	pool, err := newRigPool(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := pool.get()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.get(); err == nil || err.Error() != "transient rig failure" {
		t.Fatalf("err = %v, want the transient rig failure", err)
	}
	// Before the fix the failed build left created == Workers, so this get
	// would block on the channel (w1 is still checked out) instead of
	// retrying the build.
	done := make(chan error, 1)
	go func() {
		w2, err := pool.get()
		if err == nil {
			pool.put(w2)
		}
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("get after released slot: %v", err)
	}
	pool.put(w1)
	if calls != 3 {
		t.Fatalf("NewRig calls = %d, want 3 (eager + failed + retried)", calls)
	}
}

// TestRunSurfacesRigFailure: a failing NewRig must abort Run with the
// error rather than wedge the wave loop.
func TestRunSurfacesRigFailure(t *testing.T) {
	cfg := smallConfig(false)
	cfg.NewRig = func() (*device.Device, device.Program, error) {
		return nil, nil, fmt.Errorf("rig build exploded")
	}
	if _, err := Run(cfg); err == nil || err.Error() != "rig build exploded" {
		t.Fatalf("err = %v, want the rig build failure", err)
	}
}

// TestCapCounterConservation pins the MaxStates-cap bookkeeping: every
// branch is exactly one of a dedup hit, a fresh state, or a capped fresh
// state — and a capped state's hash stays recorded, so re-encountering it
// is a dedup hit, never a phantom fresh target.
func TestCapCounterConservation(t *testing.T) {
	uncapped := smallConfig(false)
	uncapped.MaxStates = 4096
	full, err := Run(uncapped)
	if err != nil {
		t.Fatal(err)
	}
	if full.Capped != 0 {
		t.Fatalf("workload outgrew the test state budget: %+v", full)
	}
	capped := smallConfig(false)
	capped.MaxStates = 4
	rep, err := Run(capped)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.States != 4 {
		t.Fatalf("states = %d truncated = %v, want 4/true", rep.States, rep.Truncated)
	}
	for _, r := range []*Report{full, rep} {
		if r.Branches != r.DedupHits+(r.States-1)+r.Capped {
			t.Fatalf("branch conservation violated: branches %d != dedup %d + states-1 %d + capped %d",
				r.Branches, r.DedupHits, r.States-1, r.Capped)
		}
	}
	if rep.Capped == 0 {
		t.Fatal("cap at 4 states must drop some fresh states")
	}
}

// flakyExecutor wraps a LocalExecutor and fails every Expand call after
// the first failAt.
type flakyExecutor struct {
	*LocalExecutor
	expands atomic.Int64
	failAt  int64
}

func (f *flakyExecutor) Expand(states []ShardState) ([]Expansion, error) {
	if f.expands.Add(1) > f.failAt {
		return nil, fmt.Errorf("executor failed")
	}
	return f.LocalExecutor.Expand(states)
}

// TestExecutorMatrixInvariance is the tentpole invariant at the engine
// layer: workers 1/4 × executors 1/2 × partitions 1/2/4 must all render
// the byte-identical report Run produces.
func TestExecutorMatrixInvariance(t *testing.T) {
	base, err := Run(smallConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if base.Clean() {
		t.Fatal("workload must exhibit violations for the comparison to bite")
	}
	for _, workers := range []int{1, 4} {
		for _, nexec := range []int{1, 2} {
			for _, parts := range []int{1, 2, 4} {
				cfg := smallConfig(false)
				cfg.Workers = workers
				cfg.ShardStates = 2 // force multiple batches per wave
				var execs []Executor
				for i := 0; i < nexec; i++ {
					ex, err := NewLocalExecutor(cfg)
					if err != nil {
						t.Fatal(err)
					}
					execs = append(execs, ex)
				}
				stats := &DistStats{}
				rep, err := RunWithExecutors(cfg, execs, parts, stats)
				if err != nil {
					t.Fatalf("w=%d e=%d p=%d: %v", workers, nexec, parts, err)
				}
				if !reflect.DeepEqual(rep, base) {
					t.Fatalf("w=%d e=%d p=%d: report diverges:\n%s\nvs base:\n%s",
						workers, nexec, parts, rep.Format(), base.Format())
				}
				if rep.Format() != base.Format() {
					t.Fatalf("w=%d e=%d p=%d: formatted reports differ", workers, nexec, parts)
				}
				var q int64
				for _, n := range stats.PartQueries {
					q += n
				}
				if int(q) != base.Branches+1 { // +1 for the root seed
					t.Fatalf("w=%d e=%d p=%d: %d dedup queries, want %d", workers, nexec, parts, q, base.Branches+1)
				}
			}
		}
	}
}

// TestAllExecutorsDead: when the executor dies the coordinator must end
// the search with the executor's error instead of spinning.
func TestAllExecutorsDead(t *testing.T) {
	cfg := smallConfig(false)
	cfg.ShardStates = 1
	inner, err := NewLocalExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyExecutor{LocalExecutor: inner, failAt: 1}
	if _, err := RunWithExecutors(cfg, []Executor{flaky}, 1, nil); err == nil || err.Error() != "executor failed" {
		t.Fatalf("err = %v, want the executor's own error", err)
	}
}
