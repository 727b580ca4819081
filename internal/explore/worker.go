package explore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// capHalt is the sentinel panicked when a segment has collected
// MaxCandidates failure candidates: the segment's fork fan-out is known, so
// running further would only burn simulated cycles.
var capHalt = &device.Halted{Reason: "explore: candidate cap"}

// segOutcome names how a segment ended, in reports and on the wire. A
// segment runs on tethered supply, so it never ends in a power failure.
var segOutcome = [...]string{
	device.OutReturned:    "returned",
	device.OutMemoryFault: "fault",
	device.OutHalted:      "halted",
	device.OutDeadline:    "deadline",
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
// and the write is not a WAR hazard. Failure candidates are unaffected —
// power can still fail at such writes; only the hazard rule is narrowed.
type VersionSignaler interface {
	VersionedRanges() [][2]memsim.Addr
}

// worker owns one rig and runs segments on it. A segment is one
// continuous powered run of Main from a reboot on a given non-volatile
// state, on tethered supply (the explorer forks failures; the supply never
// browns out on its own), bounded by the candidate cap and the cycle
// horizon.
type worker struct {
	cfg  *Config
	d    *device.Device
	prog device.Program
	fram *memsim.Region

	// Post-flash baseline: the root state every segment is reverted to
	// before the state under exploration is applied on top. baseMix holds
	// each baseline page's term of baseHash, mixPage(p, page hash), so a
	// capture mixes only the new term of each page that differs.
	baseFRAM   []byte
	baseMix    []uint64
	baseHash   uint64
	baseRNG    sim.RNGState
	baseSupply energy.SupplyState
	baseCycles sim.Cycles

	// Per-segment counters. armed gates every hook so the explorer's own
	// state surgery (RevertDirty/ApplyDelta fire the write hooks too) is
	// invisible to the detector. hazard is the segment's first WAR hazard;
	// its Cand is 0 until one is seen. env is what every segment's Main
	// runs with.
	armed       bool
	candCount   int
	guardDepth  int
	commitDepth int
	asserts     int
	hazard      Hazard
	env         device.Env

	// Per-segment capture: the state being expanded, whether its children
	// are wanted, the children captured so far and the first capture
	// error (which ends the segment). diff holds the live pages of the
	// child being captured between hashing and copying.
	parent     ShardState
	capturing  bool
	kids       []Child
	captureErr error
	diff       []memsim.DeltaPage

	// Blocks the captured children and the expansions' hazards are
	// carved from (see carve): the unused tail of each.
	deltaBlk []memsim.Delta
	pageBlk  []memsim.DeltaPage
	byteBlk  []byte
	kidBlk   []Child
	hazBlk   []Hazard

	// WAR window: epoch-stamped first-access state per FRAM byte, grown
	// on demand (cover) up to the highest offset a hook has seen. Bumping
	// the epoch resets the window in O(1). protected, nil unless the
	// program is a VersionSignaler, marks bytes the firmware's runtime
	// versions with rollback-on-recovery semantics — they never count as
	// hazards.
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
	w := &worker{cfg: cfg, d: d, prog: prog, fram: d.FRAM, env: device.Env{D: d}}
	d.AttachDebugger(&probe{w})
	d.Supply.SetTethered(true)

	w.fram.EnableDirtyTracking()
	w.fram.ResetDirty() // current contents ARE the baseline
	w.baseFRAM = w.fram.Snapshot()
	w.baseMix = pageHashes(w.baseFRAM)
	for p, ph := range w.baseMix {
		w.baseMix[p] = mixPage(p, ph)
		w.baseHash ^= w.baseMix[p]
	}
	w.baseRNG = d.RNG.State()
	w.baseCycles = d.Clock.Now()
	sup := d.Supply.SnapshotState()
	sup.Voltage = d.Supply.VTurnOn
	sup.State = energy.PowerOn
	sup.Tethered = true
	w.baseSupply = sup

	w.pageEp = make([]uint32, len(w.baseMix))
	if vs, ok := prog.(VersionSignaler); ok {
		w.protected = make([]bool, len(w.baseFRAM))
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

// candidate registers the next failure candidate. A power failure here
// would unwind from this very call, and no firmware defer writes FRAM on
// the way out, so FRAM already holds the child that failure leaves: it is
// captured in place, before reaching the cap ends the segment.
func (w *worker) candidate() {
	w.candCount++
	if w.capturing {
		if err := w.capture(); err != nil {
			w.captureErr = err
			panic(capHalt)
		}
	}
	if w.candCount >= w.cfg.MaxCandidates {
		panic(capHalt)
	}
}

// cover grows readEp and writeEp to hold the FRAM offsets below end,
// page-rounded and at least doubling, up to the region's size. A new entry
// holds epoch 0, which never matches the live epoch (resetWindow runs
// before a segment is armed), so it needs no reset.
func (w *worker) cover(end int) {
	n := min(max(2*len(w.readEp), (end+memsim.PageSize-1)&^(memsim.PageSize-1)), len(w.baseFRAM))
	if n > len(w.readEp) {
		w.readEp = append(w.readEp, make([]uint32, n-len(w.readEp))...)
		w.writeEp = append(w.writeEp, make([]uint32, n-len(w.writeEp))...)
	}
}

func (w *worker) noteRead(a memsim.Addr, n int) {
	off := int(a - memsim.FRAMBase)
	if off+n > len(w.readEp) {
		w.cover(off + n)
	}
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
	if off+n > len(w.writeEp) {
		w.cover(off + n)
	}
	for i := 0; i < n; i++ {
		o := off + i
		if o < 0 || o >= len(w.writeEp) {
			continue
		}
		if w.readEp[o] == w.epoch && w.writeEp[o] != w.epoch &&
			(w.protected == nil || !w.protected[o]) && w.hazard.Cand == 0 {
			// Read-before-write with no commit in between: any failure at
			// or after this write (the next candidate index) re-executes
			// the read against the written value — non-idempotent.
			w.hazard = Hazard{
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

// expand runs one segment of Main on a state: a powered run from a reboot
// that counts the failure candidates and records the first WAR hazard and
// the failed asserts, until the candidate cap or the firmware stops it. If
// children are wanted, each candidate captures its child in place as the
// segment passes it (see candidate), so the one run yields every branch.
func (w *worker) expand(st ShardState, wantChildren bool) (Expansion, error) {
	if err := w.load(st); err != nil {
		return Expansion{}, err
	}
	w.candCount, w.asserts = 0, 0
	w.guardDepth, w.commitDepth = 0, 0
	w.hazard = Hazard{}
	w.parent, w.capturing = st, wantChildren
	w.kids, w.captureErr = w.kids[:0], nil
	w.resetWindow()
	w.segEpoch++
	w.armed = true
	defer func() {
		w.armed = false
		w.d.ClearDeadline()
	}()

	o, halt := device.Catch(func() device.Outcome {
		w.prog.Main(&w.env)
		return device.OutReturned
	})
	if w.captureErr != nil {
		return Expansion{}, w.captureErr
	}
	if o == device.OutPowerFailure {
		return Expansion{}, fmt.Errorf("explore: unexpected brown-out in the segment of state %d", st.ID)
	}
	e := Expansion{Outcome: segOutcome[o], Cands: w.candCount, Asserts: w.asserts}
	if halt == capHalt {
		e.Outcome = "capped"
	}
	if w.hazard.Cand > 0 {
		e.Hazard = &carve(&w.hazBlk, 1, blockEntries)[0]
		*e.Hazard = w.hazard
	}
	if len(w.kids) > 0 {
		e.Children = carve(&w.kidBlk, len(w.kids), blockEntries)
		copy(e.Children, w.kids)
		if w.cfg.CheckHashes {
			e.HashChecks = len(e.Children)
		}
	}
	return e, nil
}

// capture records the child a power failure at the current candidate
// leaves: the rig's FRAM as a canonical delta against the post-flash
// baseline, and a state hash folded from that delta's pages. Because
// ForEachDiff skips written-then-reverted pages, two equal images always
// hash and encode identically whatever branch reached them.
//
// The hash comes first, from the live pages, and decides whether the
// pages are copied at all: see deltaOf.
func (w *worker) capture() error {
	h := w.baseHash
	w.diff = w.diff[:0]
	if err := w.fram.ForEachDiff(w.baseFRAM, func(off int, page []byte) {
		p := off / memsim.PageSize
		h ^= w.baseMix[p] ^ mixPage(p, fnv64(page))
		w.diff = append(w.diff, memsim.DeltaPage{Off: off, Data: page})
	}); err != nil {
		return err
	}
	if w.cfg.CheckHashes {
		w.snapScratch = w.fram.SnapshotInto(w.snapScratch)
		w.pageScratch = pageHashesInto(w.pageScratch, w.snapScratch)
		if full := imageHash(w.pageScratch); full != h {
			return fmt.Errorf("explore: incremental hash %016x != full-image hash %016x (%d delta pages)",
				h, full, len(w.diff))
		}
	}
	w.kids = append(w.kids, Child{K: w.candCount, Hash: h, Delta: w.deltaOf(h)})
	return nil
}

// deltaOf returns the delta of the child just hashed to h, whose divergent
// pages w.diff holds. A child equal to its parent or to an earlier sibling
// is a dedup hit whatever else the coordinator has seen (the parent's hash
// is already in its seen set, and the sibling's is queried first), so its
// delta is never read and it shares theirs. Any other child copies its
// pages into the worker's blocks.
func (w *worker) deltaOf(h uint64) *memsim.Delta {
	if h == w.parent.Hash {
		return w.parent.Delta
	}
	for _, c := range w.kids {
		if c.Hash == h {
			return c.Delta
		}
	}
	d := &carve(&w.deltaBlk, 1, blockEntries)[0]
	d.Region = w.fram.Name
	if len(w.diff) == 0 {
		return d
	}
	n := 0
	for _, pg := range w.diff {
		n += len(pg.Data)
	}
	buf := carve(&w.byteBlk, n, blockBytes)
	d.Pages = carve(&w.pageBlk, len(w.diff), blockEntries)
	for i, pg := range w.diff {
		m := copy(buf, pg.Data)
		d.Pages[i] = memsim.DeltaPage{Off: pg.Off, Data: buf[:m:m]}
		buf = buf[m:]
	}
	return d
}

// Sizes of the blocks carve cuts from: entries per block of deltas, delta
// pages, children and hazards, and bytes per block of page contents.
const (
	blockEntries = 256
	blockBytes   = 16 << 10
)

// carve cuts the next n entries from *blk, the unused tail of a block, and
// starts a new block of size entries (n, if more) when the tail is too
// short. A block is never reused: the GC frees it once nothing points into
// it, so a carved entry stays valid for as long as it is referenced.
func carve[T any](blk *[]T, n, size int) []T {
	if len(*blk) < n {
		*blk = make([]T, max(n, size))
	}
	s := (*blk)[:n:n]
	*blk = (*blk)[n:]
	return s
}

// fnv64 is FNV-1a over one page's contents taken a little-endian 64-bit
// word at a time, then a byte at a time for any tail: 8 dependent
// multiplies per page instead of 64. A product carries a difference only
// upward, so each one's high half is folded into its low half; without
// the fold, flipping bit 63 of any two words would cancel out.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h ^= binary.LittleEndian.Uint64(b)
		h *= 1099511628211
		h ^= h >> 32
	}
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
