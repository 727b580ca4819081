package explore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memsim"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// ShardState is one frontier state handed to an Executor for expansion:
// the O(dirty-page) FRAM delta against the shared post-flash baseline plus
// its state hash.
type ShardState struct {
	ID    int
	Depth int
	Hash  uint64
	Delta *memsim.Delta
}

// Child is a freshly captured successor state before dedup assigns it an id.
type Child struct {
	K     int // failure candidate in the parent's segment (1-based)
	Hash  uint64
	Delta *memsim.Delta
}

// Hazard is the first WAR hazard observed in a segment's window.
type Hazard struct {
	Addr  memsim.Addr
	Cand  int        // first failure candidate at/after the hazardous write
	Cycle sim.Cycles // segment-relative cycle of the write
}

// Expansion is everything one state's segment produced: its probe
// results and, below the depth bound, one child per failure candidate.
// Children with equal hashes may share one Delta.
type Expansion struct {
	Outcome    string // probe outcome: capped, deadline, fault, returned, halted
	Cands      int
	Asserts    int
	HashChecks int
	Hazard     *Hazard
	Children   []Child
}

// Executor is the unit the exploration coordinator fans work out to: a
// worker pool that expands frontier states and filters dedup partitions.
// LocalExecutor is the implementation; the interface is the seam through
// which a caller instruments the search (perfbench times every call).
//
// Expand is stateless with respect to the search (any executor can expand
// any state). Dedup is stateful per partition: it answers membership
// queries against partition part, inserting every queried hash, with
// fresh[i] true iff hashes[i] was not already present (an earlier
// occurrence within the same batch makes a later one a dup). Partition p
// is always queried on executor p mod len(execs). An error from any call
// ends the search with that error.
type Executor interface {
	// BaseHash is the post-flash baseline FRAM hash; the coordinator
	// cross-checks that every executor was built from an identical rig.
	BaseHash() uint64
	Expand(states []ShardState) ([]Expansion, error)
	Dedup(part int, hashes []uint64) ([]bool, error)
	Close() error
}

// DistStats is optional instrumentation for RunWithExecutors; the report
// itself stays a pure function of the Config, so batching and partition
// balance live here instead.
type DistStats struct {
	Waves        int
	ShardBatches int     // Expand batches dispatched
	PartQueries  []int64 // dedup membership queries per partition
	PartHits     []int64 // queries answered "already known" per partition
}

// LocalExecutor runs expansions on an in-process rig pool and keeps its
// dedup partitions as plain hash sets. Run uses one of these with a single
// partition.
type LocalExecutor struct {
	cfg  *Config
	pool *rigPool

	mu    sync.Mutex
	parts map[int]map[uint64]struct{}
}

// NewLocalExecutor builds the executor's rig pool (applying config
// defaults, so a zero Workers means parallel.Workers()).
func NewLocalExecutor(cfg Config) (*LocalExecutor, error) {
	c := new(Config)
	*c = cfg
	if err := c.applyDefaults(); err != nil {
		return nil, err
	}
	pool, err := newRigPool(c)
	if err != nil {
		return nil, err
	}
	return &LocalExecutor{cfg: c, pool: pool, parts: map[int]map[uint64]struct{}{}}, nil
}

// BaseHash returns the pool's post-flash baseline hash.
func (x *LocalExecutor) BaseHash() uint64 { return x.pool.baseHash }

// Expand expands a batch of frontier states over the worker pool. The
// batch is cut into a few chunks per worker so one pool checkout amortizes
// across a run of states instead of costing a get/put per state, while the
// chunk surplus keeps the pool load-balanced when segments vary in length.
// Results are positional, so chunking never affects the merged report.
func (x *LocalExecutor) Expand(states []ShardState) ([]Expansion, error) {
	n := len(states)
	if n == 0 {
		return nil, nil
	}
	w := x.cfg.Workers
	if w > n {
		w = n
	}
	chunks := 4 * w
	if chunks > n {
		chunks = n
	}
	out := make([]Expansion, n)
	_, err := parallel.MapN(chunks, w, func(ci int) (struct{}, error) {
		lo, hi := ci*n/chunks, (ci+1)*n/chunks
		wk, err := x.pool.get()
		if err != nil {
			return struct{}{}, err
		}
		defer x.pool.put(wk)
		for i := lo; i < hi; i++ {
			e, err := wk.expand(states[i], states[i].Depth < x.cfg.MaxDepth)
			if err != nil {
				return struct{}{}, err
			}
			out[i] = e
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Dedup answers membership-and-insert queries against one partition.
func (x *LocalExecutor) Dedup(part int, hashes []uint64) ([]bool, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	set := x.parts[part]
	if set == nil {
		set = make(map[uint64]struct{})
		x.parts[part] = set
	}
	fresh := make([]bool, len(hashes))
	for i, h := range hashes {
		if _, dup := set[h]; dup {
			continue
		}
		set[h] = struct{}{}
		fresh[i] = true
	}
	return fresh, nil
}

// Close releases the executor. The rigs are plain heap state; dropping the
// pool is enough.
func (x *LocalExecutor) Close() error { return nil }

// RunWithExecutors drives the breadth-first wave loop across a set of
// executors with the dedup set hash-sharded into partitions partitions.
// The report is a pure function of the Config and the partition count is
// irrelevant to the verdict stream (a hash always lands in the same
// partition, and the union of the partitions is one global set), so the
// result is reflect.DeepEqual-identical to Run(cfg) at any executor count
// and any partition count. stats may be nil.
func RunWithExecutors(cfg Config, execs []Executor, partitions int, stats *DistStats) (*Report, error) {
	c := cfg
	if err := c.applyDefaults(); err != nil {
		return nil, err
	}
	if len(execs) == 0 {
		return nil, fmt.Errorf("explore: no executors")
	}
	if partitions < 1 {
		partitions = 1
	}
	if stats != nil {
		stats.PartQueries = make([]int64, partitions)
		stats.PartHits = make([]int64, partitions)
	}
	return runWaves(&c, execs, partitions, stats)
}

// node is the coordinator's per-state bookkeeping: just enough ancestry to
// render violation branch traces.
type node struct {
	parent int // -1 at the root
	k      int
}

// tracePath renders a state's branch trace: the candidate indices injected
// from the root down to it, e.g. "root/3/1".
func tracePath(nodes []node, id int) string {
	if nodes[id].parent < 0 {
		return "root"
	}
	var ks []int
	for i := id; nodes[i].parent >= 0; i = nodes[i].parent {
		ks = append(ks, nodes[i].k)
	}
	out := "root"
	for i := len(ks) - 1; i >= 0; i-- {
		out += fmt.Sprintf("/%d", ks[i])
	}
	return out
}

func partOf(h uint64, partitions int) int { return int(h % uint64(partitions)) }

// runWaves is the engine behind Run and RunWithExecutors: expand the
// frontier wave by wave, filter children through the partitioned dedup
// set, and merge everything in canonical BFS order (frontier order, then
// candidate order) so the report is independent of executor count, worker
// count, and scheduling.
func runWaves(c *Config, execs []Executor, partitions int, stats *DistStats) (*Report, error) {
	base := execs[0].BaseHash()
	for i, e := range execs[1:] {
		if e.BaseHash() != base {
			return nil, fmt.Errorf("explore: executor %d disagrees on the post-flash baseline hash (%016x != %016x) — NewRig is not deterministic across executors",
				i+1, e.BaseHash(), base)
		}
	}
	root := ShardState{ID: 0, Depth: 0, Hash: base, Delta: &memsim.Delta{Region: "FRAM"}}
	nodes := []node{{parent: -1}}
	frontier := []ShardState{root}
	// Seed the root hash into its partition, so a branch that reverts the
	// machine to the post-flash image is a dedup hit, not a new state.
	if _, err := dedup(execs, partOf(root.Hash, partitions), []uint64{root.Hash}, stats); err != nil {
		return nil, err
	}

	rep := &Report{Mode: c.Mode, Outcomes: map[string]int{}}
	byAddr := map[memsim.Addr]*Violation{}

	for len(frontier) > 0 {
		if stats != nil {
			stats.Waves++
		}
		exps, err := expand(c, execs, frontier, stats)
		if err != nil {
			return nil, err
		}

		// First canonical pass: per-state bookkeeping, and every child
		// hash grouped by partition (canonical order within each).
		perPart := make([][]uint64, partitions)
		for i := range exps {
			e := &exps[i]
			st := frontier[i]
			rep.Outcomes[e.Outcome]++
			rep.Segments += 1 + len(e.Children)
			rep.HashChecks += e.HashChecks
			if e.Asserts > 0 {
				rep.AssertStates++
			}
			if e.Hazard != nil {
				rep.WARStates++
				v := byAddr[e.Hazard.Addr]
				if v == nil {
					v = &Violation{
						Addr:    e.Hazard.Addr,
						StateID: st.ID,
						Cand:    e.Hazard.Cand,
						Cycle:   e.Hazard.Cycle,
						Trace:   tracePath(nodes, st.ID),
					}
					byAddr[e.Hazard.Addr] = v
					rep.Violations = append(rep.Violations, v)
				}
				v.Count++
			}
			if st.Depth >= c.MaxDepth && e.Cands > 0 {
				rep.Truncated = true
			}
			for _, ch := range e.Children {
				p := partOf(ch.Hash, partitions)
				perPart[p] = append(perPart[p], ch.Hash)
			}
		}

		// Filter each partition's hashes on its owning executor. Partitions
		// run concurrently; within a partition the hashes stay in canonical
		// order, so the verdict stream is a pure function of the search.
		verdicts, err := parallel.MapN(partitions, partitions, func(p int) ([]bool, error) {
			if len(perPart[p]) == 0 {
				return nil, nil
			}
			return dedup(execs, p, perPart[p], stats)
		})
		if err != nil {
			return nil, err
		}

		// Second canonical pass: consume verdicts via per-partition
		// cursors, assigning ids to fresh states in BFS order.
		cur := make([]int, partitions)
		var next []ShardState
		for i := range exps {
			st := frontier[i]
			for _, ch := range exps[i].Children {
				rep.Branches++
				p := partOf(ch.Hash, partitions)
				fresh := verdicts[p][cur[p]]
				cur[p]++
				if !fresh {
					rep.DedupHits++
					continue
				}
				if len(nodes) >= c.MaxStates {
					// The hash is already recorded in its partition, so a
					// later branch landing on this state counts as a dedup
					// hit instead of inflating Branches as a phantom fresh
					// target every time.
					rep.Truncated = true
					rep.Capped++
					continue
				}
				id := len(nodes)
				nodes = append(nodes, node{parent: st.ID, k: ch.K})
				next = append(next, ShardState{ID: id, Depth: st.Depth + 1, Hash: ch.Hash, Delta: ch.Delta})
			}
		}
		frontier = next
	}
	rep.States = len(nodes)
	return rep, nil
}

// expand fans the frontier out as batches of at most c.ShardStates states
// over the executors: each executor pulls the next batch as soon as its
// previous one returns. Results are positional, so the scheduling never
// reaches the report.
func expand(c *Config, execs []Executor, frontier []ShardState, stats *DistStats) ([]Expansion, error) {
	batches := (len(frontier) + c.ShardStates - 1) / c.ShardStates
	if stats != nil {
		stats.ShardBatches += batches
	}
	out := make([]Expansion, len(frontier))
	var next atomic.Int64
	_, err := parallel.MapN(len(execs), len(execs), func(slot int) (struct{}, error) {
		for {
			b := int(next.Add(1)) - 1
			if b >= batches {
				return struct{}{}, nil
			}
			lo := b * c.ShardStates
			hi := min(lo+c.ShardStates, len(frontier))
			exps, err := execs[slot].Expand(frontier[lo:hi])
			if err != nil {
				return struct{}{}, err
			}
			if len(exps) != hi-lo {
				return struct{}{}, fmt.Errorf("explore: executor returned %d expansions for %d states", len(exps), hi-lo)
			}
			copy(out[lo:hi], exps)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dedup runs one partition's membership queries, in order, on the
// partition's executor.
func dedup(execs []Executor, part int, hashes []uint64, stats *DistStats) ([]bool, error) {
	fresh, err := execs[part%len(execs)].Dedup(part, hashes)
	if err != nil {
		return nil, err
	}
	if len(fresh) != len(hashes) {
		return nil, fmt.Errorf("explore: executor returned %d verdicts for %d hashes", len(fresh), len(hashes))
	}
	if stats != nil {
		hits := int64(0)
		for _, f := range fresh {
			if !f {
				hits++
			}
		}
		stats.PartQueries[part] += int64(len(hashes))
		stats.PartHits[part] += hits
	}
	return fresh, nil
}
