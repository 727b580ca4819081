package explore

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// capHalt is the sentinel panicked when a probe run has collected
// MaxCandidates failure candidates: the segment's fork fan-out is known, so
// running further would only burn simulated cycles.
var capHalt = &device.Halted{Reason: "explore: candidate cap"}

// segOutcome names how a segment ended, in reports and on the wire.
var segOutcome = [...]string{
	device.OutReturned:     "returned",
	device.OutPowerFailure: "injected",
	device.OutMemoryFault:  "fault",
	device.OutHalted:       "halted",
	device.OutDeadline:     "deadline",
}

// CommitSignaler is implemented by firmware whose runtime exposes its
// atomic commit machinery (checkpoint.Mementos/Tasks CommitHook): the
// explorer brackets the runtime's own log writes out of the WAR window and
// treats each commit as a window boundary plus a failure candidate.
type CommitSignaler interface {
	SetCommitHook(fn func(active bool))
}

// VersionSignaler is implemented by firmware whose runtime versions a set
// of non-volatile ranges with rollback-on-recovery semantics (checkpoint.
// Tasks.RegisterVar): a write inside the versioned set between boundaries
// is undone by the next boot's Recover, so re-execution never observes it
// and the write is not a WAR hazard. Injection candidates are unaffected —
// power can still fail at such writes; only the hazard rule is narrowed.
type VersionSignaler interface {
	VersionedRanges() [][2]memsim.Addr
}

// worker owns one rig and replays segments on it. A segment is one
// continuous powered run of Main from a reboot on a given non-volatile
// state, on tethered supply (the explorer injects failures; the supply
// never browns out on its own), bounded by the candidate cap and the cycle
// horizon.
type worker struct {
	cfg  *Config
	d    *device.Device
	prog device.Program
	fram *memsim.Region

	// Post-flash baseline: the root state every segment is reverted to
	// before the state under exploration is applied on top.
	baseFRAM     []byte
	basePageHash []uint64
	baseHash     uint64
	baseRNG      sim.RNGState
	baseSupply   energy.SupplyState
	baseCycles   sim.Cycles

	// Per-segment mode and counters. armed gates every hook so the
	// explorer's own state surgery (RevertDirty/ApplyDelta fire the write
	// hooks too) is invisible to the detector.
	armed       bool
	probing     bool
	injectAt    int
	candCount   int
	guardDepth  int
	commitDepth int
	asserts     int
	hazard      *Hazard

	// WAR window: epoch-stamped first-access state per FRAM byte. Bumping
	// the epoch resets the window in O(1). protected marks bytes the
	// firmware's runtime versions with rollback-on-recovery semantics
	// (VersionSignaler) — they never count as hazards.
	epoch     uint32
	readEp    []uint32
	writeEp   []uint32
	protected []bool

	// Page mode: epoch-stamped per-segment "page already forked" set.
	segEpoch uint32
	pageEp   []uint32

	// CheckHashes scratch, reused across captures so the cross-check does
	// not allocate a full image plus page-hash table per child.
	snapScratch []byte
	pageScratch []uint64
}

// probe is the minimal device.Debugger the explorer attaches in EDB's
// place. It accepts energy guards (tracking depth so guarded writes stay
// out of the WAR window), declines asserts/printf/breakpoints so firmware
// continues past them (the probe records assert failures as observations),
// and turns guard exits into failure candidates.
type probe struct{ w *worker }

func (p *probe) MarkerEdge(now sim.Cycles, id int) {}

func (p *probe) DebugRequest(env *device.Env, kind device.DebugRequestKind, arg uint16) bool {
	w := p.w
	if !w.armed {
		return false
	}
	switch kind {
	case device.ReqGuardBegin:
		if w.guardDepth == 0 {
			w.resetWindow()
		}
		w.guardDepth++
		return true
	case device.ReqAssert:
		w.asserts++
	}
	return false
}

// DebugDone is only reached from libEDB's GuardEnd on this probe (declined
// asserts and printfs return without a done edge), so it pairs exactly with
// ReqGuardBegin.
func (p *probe) DebugDone(env *device.Env) {
	w := p.w
	if !w.armed || w.guardDepth == 0 {
		return
	}
	w.guardDepth--
	if w.guardDepth == 0 {
		w.resetWindow()
		w.candidate()
	}
}

func (p *probe) BreakpointEnabled(id int) bool { return false }

func (p *probe) EnterInteractive(env *device.Env, reason string) {}

func newWorker(cfg *Config) (*worker, error) {
	d, prog, err := cfg.NewRig()
	if err != nil {
		return nil, err
	}
	if d.Debugger() != nil {
		return nil, fmt.Errorf("explore: rig already has a debugger attached; build it core.WithoutEDB()")
	}
	w := &worker{cfg: cfg, d: d, prog: prog, fram: d.FRAM}
	d.AttachDebugger(&probe{w})
	d.Supply.SetTethered(true)

	w.fram.EnableDirtyTracking()
	w.fram.ResetDirty() // current contents ARE the baseline
	w.baseFRAM = w.fram.Snapshot()
	w.basePageHash = pageHashes(w.baseFRAM)
	w.baseHash = imageHash(w.basePageHash)
	w.baseRNG = d.RNG.State()
	w.baseCycles = d.Clock.Now()
	sup := d.Supply.SnapshotState()
	sup.Voltage = d.Supply.VTurnOn
	sup.State = energy.PowerOn
	sup.Tethered = true
	w.baseSupply = sup

	w.readEp = make([]uint32, len(w.baseFRAM))
	w.writeEp = make([]uint32, len(w.baseFRAM))
	w.pageEp = make([]uint32, len(w.basePageHash))
	w.protected = make([]bool, len(w.baseFRAM))
	if vs, ok := prog.(VersionSignaler); ok {
		for _, rng := range vs.VersionedRanges() {
			for a := rng[0]; a < rng[1]; a++ {
				if o := int(a - memsim.FRAMBase); o >= 0 && o < len(w.protected) {
					w.protected[o] = true
				}
			}
		}
	}

	prevWrite := w.fram.WriteHook
	w.fram.WriteHook = func(a memsim.Addr, n int) {
		if prevWrite != nil {
			prevWrite(a, n)
		}
		if !w.armed || w.guardDepth > 0 || w.commitDepth > 0 {
			return
		}
		w.noteWrite(a, n)
		if w.cfg.Mode == ModePage {
			if w.freshPages(a, n) {
				w.candidate()
			}
			return
		}
		w.candidate()
	}
	w.fram.ReadHook = func(a memsim.Addr, n int) {
		if !w.armed || w.guardDepth > 0 || w.commitDepth > 0 {
			return
		}
		w.noteRead(a, n)
	}
	if cs, ok := prog.(CommitSignaler); ok {
		cs.SetCommitHook(func(active bool) {
			if !w.armed {
				return
			}
			if active {
				if w.commitDepth == 0 {
					w.resetWindow()
				}
				w.commitDepth++
				return
			}
			if w.commitDepth == 0 {
				return
			}
			w.commitDepth--
			if w.commitDepth == 0 {
				w.resetWindow()
				w.candidate()
			}
		})
	}
	return w, nil
}

// resetWindow opens a fresh WAR window (guard/commit boundaries and segment
// starts are the points a failure cannot straddle).
func (w *worker) resetWindow() { w.epoch++ }

// candidate registers the next failure candidate: on an injected run, the
// target index panics a power failure exactly as a brown-out would; on a
// probe run, reaching the cap ends the segment early.
func (w *worker) candidate() {
	w.candCount++
	if !w.probing && w.candCount == w.injectAt {
		panic(&device.PowerFailure{At: w.d.Clock.Now(), V: w.d.Supply.Voltage()})
	}
	if w.probing && w.candCount >= w.cfg.MaxCandidates {
		panic(capHalt)
	}
}

func (w *worker) noteRead(a memsim.Addr, n int) {
	off := int(a - memsim.FRAMBase)
	for i := 0; i < n; i++ {
		o := off + i
		if o < 0 || o >= len(w.readEp) {
			continue
		}
		if w.writeEp[o] != w.epoch && w.readEp[o] != w.epoch {
			w.readEp[o] = w.epoch
		}
	}
}

func (w *worker) noteWrite(a memsim.Addr, n int) {
	off := int(a - memsim.FRAMBase)
	for i := 0; i < n; i++ {
		o := off + i
		if o < 0 || o >= len(w.writeEp) {
			continue
		}
		if w.readEp[o] == w.epoch && w.writeEp[o] != w.epoch &&
			!w.protected[o] && w.probing && w.hazard == nil {
			// Read-before-write with no commit in between: any failure at
			// or after this write (the next candidate index) re-executes
			// the read against the written value — non-idempotent.
			w.hazard = &Hazard{
				Addr:  a + memsim.Addr(i),
				Cand:  w.candCount + 1,
				Cycle: w.d.Clock.Now() - w.baseCycles,
			}
		}
		w.writeEp[o] = w.epoch
	}
}

// freshPages marks the pages covering [a, a+n) as forked this segment and
// reports whether any of them was fresh.
func (w *worker) freshPages(a memsim.Addr, n int) bool {
	lo := int(a-memsim.FRAMBase) / memsim.PageSize
	hi := (int(a-memsim.FRAMBase) + n - 1) / memsim.PageSize
	fresh := false
	for p := lo; p <= hi; p++ {
		if p < 0 || p >= len(w.pageEp) {
			continue
		}
		if w.pageEp[p] != w.segEpoch {
			w.pageEp[p] = w.segEpoch
			fresh = true
		}
	}
	return fresh
}

// load reverts the rig to the given state and reboots it into a canonical
// segment-start machine: cleared SRAM, baseline clock/RNG/supply. Resetting
// the clock makes a segment's cycle stamps independent of which worker's
// rig runs it — part of the worker-count determinism argument.
func (w *worker) load(st ShardState) error {
	if _, err := w.fram.RevertDirty(w.baseFRAM); err != nil {
		return fmt.Errorf("explore: revert: %w", err)
	}
	if err := w.fram.ApplyDelta(st.Delta); err != nil {
		return fmt.Errorf("explore: apply state %d: %w", st.ID, err)
	}
	w.d.Reboot()
	if err := w.d.Clock.SetNow(w.baseCycles); err != nil {
		return fmt.Errorf("explore: clock rewind with pending events: %w", err)
	}
	w.d.RNG.RestoreState(w.baseRNG)
	w.d.Supply.RestoreState(w.baseSupply)
	w.d.SetDeadline(w.baseCycles + w.cfg.SegmentCycles)
	return nil
}

// runSegment executes one segment of Main on the given state. injectAt == 0
// is a probe run (collect candidates, hazards, asserts); injectAt == k
// replays the segment and injects a power failure at candidate k.
func (w *worker) runSegment(st ShardState, injectAt int) (string, error) {
	if err := w.load(st); err != nil {
		return "", err
	}
	w.probing = injectAt == 0
	w.injectAt = injectAt
	w.candCount = 0
	w.guardDepth, w.commitDepth = 0, 0
	if w.probing {
		w.asserts = 0
		w.hazard = nil
	}
	w.resetWindow()
	w.segEpoch++
	w.armed = true
	defer func() {
		w.armed = false
		w.d.ClearDeadline()
	}()

	o, h := device.Catch(func() device.Outcome {
		w.prog.Main(&device.Env{D: w.d})
		return device.OutReturned
	})
	if h == capHalt {
		return "capped", nil
	}
	return segOutcome[o], nil
}

// expand runs a state's probe segment and, if wanted, one injected segment
// per discovered candidate, capturing each successor as an O(dirty) delta
// plus an incrementally maintained state hash.
func (w *worker) expand(st ShardState, wantChildren bool) (Expansion, error) {
	out, err := w.runSegment(st, 0)
	if err != nil {
		return Expansion{}, err
	}
	if out == "injected" {
		return Expansion{}, fmt.Errorf("explore: unexpected brown-out during probe of state %d", st.ID)
	}
	e := Expansion{Outcome: out, Cands: w.candCount, Asserts: w.asserts}
	if w.hazard != nil {
		h := *w.hazard
		e.Hazard = &h
	}
	if !wantChildren {
		return e, nil
	}
	e.Children = make([]Child, 0, e.Cands)
	for k := 1; k <= e.Cands; k++ {
		o, err := w.runSegment(st, k)
		if err != nil {
			return Expansion{}, err
		}
		if o != "injected" || w.candCount != k {
			return Expansion{}, fmt.Errorf("explore: replay diverged at state %d candidate %d (outcome %s after %d candidates) — firmware is not segment-deterministic",
				st.ID, k, o, w.candCount)
		}
		hash, delta, err := w.capture()
		if err != nil {
			return Expansion{}, err
		}
		e.Children = append(e.Children, Child{K: k, Hash: hash, Delta: delta})
		if w.cfg.CheckHashes {
			e.HashChecks++
		}
	}
	return e, nil
}

// capture encodes the rig's current FRAM as a canonical delta against the
// post-flash baseline and folds the delta's pages into the incremental
// state hash. Because DiffDirty excludes written-then-reverted pages, two
// equal images always hash (and encode) identically regardless of the
// branch that reached them.
func (w *worker) capture() (uint64, *memsim.Delta, error) {
	delta, err := w.fram.DiffDirty(w.baseFRAM)
	if err != nil {
		return 0, nil, err
	}
	h := w.baseHash
	for _, pg := range delta.Pages {
		p := pg.Off / memsim.PageSize
		h ^= mixPage(p, w.basePageHash[p]) ^ mixPage(p, fnv64(pg.Data))
	}
	if w.cfg.CheckHashes {
		w.snapScratch = w.fram.SnapshotInto(w.snapScratch)
		w.pageScratch = pageHashesInto(w.pageScratch, w.snapScratch)
		full := imageHash(w.pageScratch)
		if full != h {
			return 0, nil, fmt.Errorf("explore: incremental hash %016x != full-image hash %016x (%d delta pages)",
				h, full, len(delta.Pages))
		}
	}
	return h, delta, nil
}

// fnv64 is FNV-1a over one page's contents.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mixPage folds a page's content hash with its index through the pool's
// seed-sharding finalizer, so the XOR accumulation over pages keeps full
// 64-bit diffusion (identical pages at different indices contribute
// different terms, and reverting a page cancels its term exactly).
func mixPage(p int, h uint64) uint64 {
	return uint64(parallel.ShardSeed(int64(h), p))
}

// pageHashes hashes every PageSize-byte page of an image.
func pageHashes(img []byte) []uint64 { return pageHashesInto(nil, img) }

// pageHashesInto is pageHashes into a reusable buffer.
func pageHashesInto(out []uint64, img []byte) []uint64 {
	n := (len(img) + memsim.PageSize - 1) / memsim.PageSize
	if cap(out) < n {
		out = make([]uint64, n)
	}
	out = out[:n]
	for p := 0; p < n; p++ {
		lo := p * memsim.PageSize
		hi := lo + memsim.PageSize
		if hi > len(img) {
			hi = len(img)
		}
		out[p] = fnv64(img[lo:hi])
	}
	return out
}

// imageHash folds per-page hashes into one 64-bit state hash.
func imageHash(pages []uint64) uint64 {
	var h uint64
	for p, ph := range pages {
		h ^= mixPage(p, ph)
	}
	return h
}
