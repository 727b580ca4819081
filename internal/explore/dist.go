package explore

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/memsim"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// ShardState is one frontier state shipped to an Executor for expansion:
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
// The process-local implementation is LocalExecutor; internal/cluster
// provides one backed by an edbd backend over the wire protocol.
//
// Expand is stateless with respect to the search (any executor can expand
// any state), so the coordinator is free to rebalance and to retry a batch
// on a different executor after a failure. Dedup is stateful per partition:
// it answers membership queries against partition part, inserting every
// queried hash, with fresh[i] true iff hashes[i] was not already present
// (an earlier occurrence within the same batch makes a later one a dup).
// A partition is only ever queried on one executor at a time; after a
// failover the coordinator re-seeds the replacement from its journal.
type Executor interface {
	// BaseHash is the post-flash baseline FRAM hash; the coordinator
	// cross-checks that every executor was built from an identical rig.
	BaseHash() uint64
	Expand(states []ShardState) ([]Expansion, error)
	Dedup(part int, hashes []uint64) ([]bool, error)
	Close() error
}

// DistStats is optional instrumentation for RunWithExecutors; the report
// itself stays a pure function of the Config, so transfer accounting and
// partition balance live here instead.
type DistStats struct {
	Waves        int
	ShardBatches int     // Expand batches dispatched
	ShardStates  int64   // frontier states shipped in those batches
	Retries      int     // batches re-dispatched after an executor died
	PartQueries  []int64 // dedup membership queries per partition
	PartHits     []int64 // queries answered "already known" per partition
}

// LocalExecutor runs expansions on an in-process rig pool and keeps its
// dedup partitions as plain hash sets. Run uses one of these with a single
// partition; the console's `explore backends=N` uses one with N partitions,
// which by construction produces the identical report.
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
// result is reflect.DeepEqual-identical to Run(cfg) at any executor count,
// any partition count, and regardless of executor failures — as long as at
// least one executor survives. stats may be nil.
func RunWithExecutors(cfg Config, execs []Executor, partitions int, stats *DistStats) (*Report, error) {
	c := cfg
	if err := c.applyLimits(); err != nil {
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

// runWaves is the engine shared by the single-process and distributed
// paths: expand the frontier wave by wave, filter children through the
// partitioned dedup set, and merge everything in canonical BFS order
// (frontier order, then candidate order) so the report is independent of
// executor count, worker count, and scheduling.
func runWaves(c *Config, execs []Executor, partitions int, stats *DistStats) (*Report, error) {
	base := execs[0].BaseHash()
	for i, e := range execs[1:] {
		if e.BaseHash() != base {
			return nil, fmt.Errorf("explore: executor %d disagrees on the post-flash baseline hash (%016x != %016x) — NewRig is not deterministic across executors",
				i+1, e.BaseHash(), base)
		}
	}
	co := newCoordinator(c, execs, partitions, stats)

	root := ShardState{ID: 0, Depth: 0, Hash: base, Delta: &memsim.Delta{Region: "FRAM"}}
	nodes := []node{{parent: -1}}
	frontier := []ShardState{root}
	// Seed the root hash into its partition, so a branch that reverts the
	// machine to the post-flash image is a dedup hit, not a new state.
	if _, err := co.dedup(partOf(root.Hash, partitions), []uint64{root.Hash}); err != nil {
		return nil, err
	}

	rep := &Report{Mode: c.Mode, Outcomes: map[string]int{}}
	byAddr := map[memsim.Addr]*Violation{}

	for len(frontier) > 0 {
		if stats != nil {
			stats.Waves++
		}
		exps, err := co.expand(frontier)
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
			return co.dedup(p, perPart[p])
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

// coordinator tracks executor liveness, partition ownership, and the
// per-partition journal of fresh hashes that re-seeds a partition onto a
// replacement executor after a failover.
type coordinator struct {
	c       *Config
	execs   []Executor
	journal [][]uint64 // per partition: every fresh hash, in insert order
	stats   *DistStats

	mu      sync.Mutex
	live    []bool
	owner   []int // partition -> executor slot
	lastErr error
}

func newCoordinator(c *Config, execs []Executor, partitions int, stats *DistStats) *coordinator {
	co := &coordinator{
		c:       c,
		execs:   execs,
		journal: make([][]uint64, partitions),
		stats:   stats,
		live:    make([]bool, len(execs)),
		owner:   make([]int, partitions),
	}
	for i := range co.live {
		co.live[i] = true
	}
	for p := range co.owner {
		co.owner[p] = p % len(execs)
	}
	return co
}

func (co *coordinator) kill(slot int, err error) {
	co.mu.Lock()
	co.live[slot] = false
	co.lastErr = err
	co.mu.Unlock()
	co.execs[slot].Close()
}

func (co *coordinator) liveSlots() []int {
	co.mu.Lock()
	defer co.mu.Unlock()
	var out []int
	for i, l := range co.live {
		if l {
			out = append(out, i)
		}
	}
	return out
}

func (co *coordinator) deadErr() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.lastErr == nil {
		return fmt.Errorf("explore: all executors failed")
	}
	return fmt.Errorf("explore: all executors failed: %w", co.lastErr)
}

// expand fans the frontier out as bounded batches over the live executors:
// each executor's feeder goroutine pulls the next batch as soon as its
// previous one returns (load-aware by construction), and a batch whose
// executor dies goes back on the pile for the survivors. Results are
// positional, so none of this scheduling freedom reaches the report.
func (co *coordinator) expand(frontier []ShardState) ([]Expansion, error) {
	out := make([]Expansion, len(frontier))
	type batch struct{ lo, hi int }
	var pending []batch
	for lo := 0; lo < len(frontier); lo += co.c.ShardStates {
		hi := lo + co.c.ShardStates
		if hi > len(frontier) {
			hi = len(frontier)
		}
		pending = append(pending, batch{lo, hi})
	}
	if co.stats != nil {
		co.stats.ShardBatches += len(pending)
		co.stats.ShardStates += int64(len(frontier))
	}
	for round := 0; len(pending) > 0; round++ {
		slots := co.liveSlots()
		if len(slots) == 0 {
			return nil, co.deadErr()
		}
		if round > 0 && co.stats != nil {
			co.stats.Retries += len(pending)
		}
		q := make(chan batch, len(pending))
		for _, b := range pending {
			q <- b
		}
		close(q)
		var mu sync.Mutex
		var failed []batch
		var wg sync.WaitGroup
		for _, slot := range slots {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				for b := range q {
					exps, err := co.execs[slot].Expand(frontier[b.lo:b.hi])
					if err == nil && len(exps) != b.hi-b.lo {
						err = fmt.Errorf("explore: executor returned %d expansions for %d states", len(exps), b.hi-b.lo)
					}
					if err != nil {
						co.kill(slot, err)
						mu.Lock()
						failed = append(failed, b)
						mu.Unlock()
						return
					}
					copy(out[b.lo:b.hi], exps)
				}
			}(slot)
		}
		wg.Wait()
		// Batches left in the queue because every feeder died mid-round
		// are as unfinished as the explicitly failed ones.
		for b := range q {
			failed = append(failed, b)
		}
		sort.Slice(failed, func(i, j int) bool { return failed[i].lo < failed[j].lo })
		pending = failed
	}
	return out, nil
}

// dedup runs one partition's membership queries on its owning executor, in
// order, chunked to bound frame sizes on the remote path. On an owner
// failure the partition moves to the next live executor, which is re-seeded
// from the journal before the failed chunk retries — the replacement's set
// is then byte-for-byte the processed prefix, so verdicts never change.
func (co *coordinator) dedup(part int, hashes []uint64) ([]bool, error) {
	const chunk = 8192
	out := make([]bool, 0, len(hashes))
	for lo := 0; lo < len(hashes); lo += chunk {
		hi := lo + chunk
		if hi > len(hashes) {
			hi = len(hashes)
		}
		for {
			slot, err := co.ownerOf(part)
			if err != nil {
				return nil, err
			}
			fresh, err := co.execs[slot].Dedup(part, hashes[lo:hi])
			if err == nil && len(fresh) != hi-lo {
				err = fmt.Errorf("explore: executor returned %d verdicts for %d hashes", len(fresh), hi-lo)
			}
			if err != nil {
				co.kill(slot, err)
				continue
			}
			for i, f := range fresh {
				if f {
					co.journal[part] = append(co.journal[part], hashes[lo+i])
				}
			}
			out = append(out, fresh...)
			break
		}
	}
	if co.stats != nil {
		hits := int64(0)
		for _, f := range out {
			if !f {
				hits++
			}
		}
		co.stats.PartQueries[part] += int64(len(hashes))
		co.stats.PartHits[part] += hits
	}
	return out, nil
}

// ownerOf returns the partition's owning executor slot, moving ownership to
// the next live slot (ring order from the original owner) and re-seeding it
// from the journal when the current owner is dead. Ownership only ever
// moves on death and a dead executor never revives, so a replacement has
// never seen the partition before the re-seed.
func (co *coordinator) ownerOf(part int) (int, error) {
	co.mu.Lock()
	slot := co.owner[part]
	if co.live[slot] {
		co.mu.Unlock()
		return slot, nil
	}
	found := -1
	for d := 1; d <= len(co.execs); d++ {
		if s := (slot + d) % len(co.execs); co.live[s] {
			found = s
			break
		}
	}
	co.mu.Unlock()
	if found < 0 {
		return -1, co.deadErr()
	}
	co.mu.Lock()
	co.owner[part] = found
	co.mu.Unlock()
	if len(co.journal[part]) > 0 {
		if _, err := co.execs[found].Dedup(part, co.journal[part]); err != nil {
			co.kill(found, err)
			return co.ownerOf(part)
		}
	}
	return found, nil
}
