// Package explore is a model-checking search kernel for intermittence bugs:
// instead of sampling power-failure points from the harvester RNG the way a
// normal simulated run does, it forks the rig at every failure candidate —
// each unguarded FRAM write (or, in page mode, the first write per clean
// page) plus every energy-guard and checkpoint-commit exit — and explores
// the state a power failure at each one leaves, exhaustively within the
// configured horizon. One run of a state's segment yields all of its
// children: each is captured at its candidate as the segment passes it.
//
// Throughput comes from the PR 4 snapshot substrate: non-volatile state is
// the only state a power failure preserves, so a search state is exactly a
// FRAM image, encoded as the O(dirty pages) delta against the post-flash
// baseline (memsim.Region.ForEachDiff). The frontier is deduplicated by a
// 64-bit state hash computed at each capture over the delta's pages only,
// before they are copied, with an optional full-image recompute as a debug
// cross-check. Exploration is a breadth-first search whose waves fan out
// over Executors, in-process rig pools (LocalExecutor), with results
// merged in canonical branch order, so the report — including every
// WAR-violation branch trace — is bit-for-bit identical at any worker
// count, executor count, and dedup partition count.
//
// The detector half flags non-idempotent re-execution the way Surbatovich
// et al.'s formal foundation defines it: a WAR violation is a non-volatile
// location read and then written with no commit point in between, so a
// failure after the write makes re-execution observe its own output.
// Energy guards and checkpoint/task-boundary commits end the window.
package explore

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// Candidate-set modes.
const (
	// ModeWrite forks after every unguarded FRAM write plus every guard and
	// commit exit — the exhaustive setting.
	ModeWrite = "write"
	// ModePage forks only after the first write to each per-segment clean
	// FRAM page plus guard/commit exits — coarser, cheaper, sound for bugs
	// whose symptom is page-granular.
	ModePage = "page"
)

// Config parameterizes an exploration.
type Config struct {
	// NewRig builds one fresh, flashed target per worker — most callers
	// wrap core.ExploreTarget. The device must have no debugger attached
	// (build the rig core.WithoutEDB()): the explorer installs its own
	// minimal probe. Every call must produce an identical machine (same
	// program, same seed) — the engine cross-checks the post-flash FRAM
	// hash of each worker against the first.
	NewRig func() (*device.Device, device.Program, error)

	// Mode is ModeWrite (default) or ModePage.
	Mode string
	// MaxDepth bounds the number of power failures along any branch
	// (root = depth 0). Default 3.
	MaxDepth int
	// MaxCandidates caps the failure candidates considered per segment, so
	// segments of non-terminating firmware stay short. Default 24.
	MaxCandidates int
	// MaxStates bounds the number of distinct states explored. Default 512.
	MaxStates int
	// SegmentCycles is the simulated-cycle horizon of one segment (a safety
	// net for candidate-free loops). Default 200000.
	SegmentCycles sim.Cycles
	// Workers bounds each executor's worker pool; 0 means
	// parallel.Workers().
	Workers int
	// ShardStates caps the frontier states per Expand batch the
	// coordinator hands one executor, so a wave spreads across several
	// executors. Default 64.
	ShardStates int
	// CheckHashes recomputes every state hash from the full FRAM image and
	// errors on a mismatch with the incremental hash — the debug
	// cross-check for the incremental hashing scheme.
	CheckHashes bool
}

func (c *Config) applyDefaults() error {
	if c.NewRig == nil {
		return fmt.Errorf("explore: Config.NewRig is required")
	}
	if c.Mode == "" {
		c.Mode = ModeWrite
	}
	if c.Mode != ModeWrite && c.Mode != ModePage {
		return fmt.Errorf("explore: unknown mode %q", c.Mode)
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 24
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 512
	}
	if c.SegmentCycles <= 0 {
		c.SegmentCycles = 200_000
	}
	if c.Workers <= 0 {
		c.Workers = parallel.Workers()
	}
	if c.ShardStates <= 0 {
		c.ShardStates = 64
	}
	return nil
}

// Run explores the fork tree breadth-first on one in-process executor and
// returns the merged report.
func Run(cfg Config) (*Report, error) {
	c := cfg
	if err := c.applyDefaults(); err != nil {
		return nil, err
	}
	ex, err := NewLocalExecutor(c)
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	return runWaves(&c, []Executor{ex}, 1, nil)
}

// rigPool hands out workers to an executor's expansion chunks, creating at
// most cfg.Workers of them lazily and verifying each against the first
// worker's post-flash baseline hash.
type rigPool struct {
	cfg      *Config
	ch       chan *worker
	baseHash uint64

	mu      sync.Mutex
	created int
}

func newRigPool(cfg *Config) (*rigPool, error) {
	p := &rigPool{cfg: cfg, ch: make(chan *worker, cfg.Workers)}
	w, err := newWorker(cfg)
	if err != nil {
		return nil, err
	}
	p.baseHash = w.baseHash
	p.created = 1
	p.ch <- w
	return p, nil
}

func (p *rigPool) get() (*worker, error) {
	select {
	case w := <-p.ch:
		return w, nil
	default:
	}
	p.mu.Lock()
	if p.created < p.cfg.Workers {
		p.created++
		p.mu.Unlock()
		w, err := newWorker(p.cfg)
		if err == nil && w.baseHash != p.baseHash {
			err = fmt.Errorf("explore: NewRig is not deterministic: baseline hash %016x != %016x",
				w.baseHash, p.baseHash)
		}
		if err != nil {
			// Release the reserved slot: the worker it was counting never
			// came to exist, and without the decrement every later get
			// would wait on p.ch for a worker that can never be put back.
			p.mu.Lock()
			p.created--
			p.mu.Unlock()
			return nil, err
		}
		return w, nil
	}
	p.mu.Unlock()
	return <-p.ch, nil
}

func (p *rigPool) put(w *worker) { p.ch <- w }
