// Package sim provides the discrete-event simulation kernel underneath the
// EDB reproduction: a cycle-accurate clock, a deterministic event scheduler,
// and seeded randomness.
//
// The target device in the paper (a WISP 5) runs its MSP430FR MCU at 4 MHz;
// the simulator counts time in clock cycles of a configurable frequency and
// converts to seconds only at the edges (energy integration, trace
// timestamps). All randomness used by any experiment flows through RNG so
// that every table and figure regenerates bit-for-bit.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/units"
)

// Cycles counts MCU clock cycles of simulated time.
type Cycles uint64

// DefaultClockHz is the default simulated MCU clock: 4 MHz, matching the
// WISP 5 configuration in the paper's evaluation (§5.1).
const DefaultClockHz = 4_000_000

// Clock tracks simulated time in cycles and converts to wall-clock seconds.
type Clock struct {
	hz    uint64
	now   Cycles
	sched *scheduler
}

// NewClock returns a clock running at hz cycles per second. A non-positive
// hz falls back to DefaultClockHz.
func NewClock(hz uint64) *Clock {
	if hz == 0 {
		hz = DefaultClockHz
	}
	c := &Clock{hz: hz}
	c.sched = newScheduler(c)
	return c
}

// Hz returns the clock frequency in cycles per second.
func (c *Clock) Hz() uint64 { return c.hz }

// Now returns the current simulated time in cycles.
func (c *Clock) Now() Cycles { return c.now }

// Time returns the current simulated time in seconds.
func (c *Clock) Time() units.Seconds { return c.ToSeconds(c.now) }

// ToSeconds converts a cycle count to seconds at this clock's frequency.
func (c *Clock) ToSeconds(n Cycles) units.Seconds {
	return units.Seconds(float64(n) / float64(c.hz))
}

// ToCycles converts a duration in seconds to cycles, rounding to nearest.
func (c *Clock) ToCycles(s units.Seconds) Cycles {
	if s <= 0 {
		return 0
	}
	return Cycles(float64(s)*float64(c.hz) + 0.5)
}

// Advance moves simulated time forward by n cycles, firing any events whose
// deadline falls inside the window, in deadline order. Events scheduled by
// callbacks within the window also fire if they land inside it.
func (c *Clock) Advance(n Cycles) {
	target := c.now + n
	for {
		ev, ok := c.sched.peek()
		if !ok || ev.at > target {
			break
		}
		c.now = ev.at
		c.sched.pop()
		ev.fn()
		// Recycle only after the callback returns, so a callback that
		// cancels or reschedules its own handle never observes a reused
		// object. Handles are dead once fired (see the Event doc).
		c.sched.release(ev)
	}
	c.now = target
}

// Schedule registers fn to run when the clock reaches "at". Events at the
// same cycle fire in the order they were scheduled. It returns a handle that
// can cancel the event.
func (c *Clock) Schedule(at Cycles, fn func()) *Event {
	return c.sched.add(at, fn)
}

// ScheduleAfter registers fn to run delta cycles from now.
func (c *Clock) ScheduleAfter(delta Cycles, fn func()) *Event {
	return c.Schedule(c.now+delta, fn)
}

// Pending reports the number of events still scheduled.
func (c *Clock) Pending() int { return c.sched.len() }

// SetNow repositions the clock for a snapshot restore. Scheduled events are
// closures and cannot ride along in a snapshot, so repositioning is only
// legal while the schedule is empty (machine snapshots are taken at
// quiescent points that guarantee this).
func (c *Clock) SetNow(now Cycles) error {
	if n := c.sched.len(); n != 0 {
		return fmt.Errorf("sim: cannot reposition clock with %d pending events", n)
	}
	c.now = now
	return nil
}

// NextEventAt returns the cycle of the earliest scheduled event, if any.
// Fast-forward paths use it to bound how far they may jump without skipping
// a callback.
func (c *Clock) NextEventAt() (Cycles, bool) {
	ev, ok := c.sched.peek()
	if !ok {
		return 0, false
	}
	return ev.at, true
}

// Event is a scheduled callback. Cancel prevents it from firing.
//
// A handle is live until its event fires; once fired, the object is recycled
// through the scheduler's free list and must not be retained or cancelled
// (a later Schedule may hand the same object back for an unrelated event).
// Cancelled events are not recycled, so calling Cancel any number of times
// on a cancelled handle remains a safe no-op.
type Event struct {
	at    Cycles
	seq   uint64
	fn    func()
	index int // heap index; -1 once fired or cancelled
	sched *scheduler
}

// At returns the cycle at which the event fires.
func (e *Event) At() Cycles { return e.at }

// Cancel removes the event from the schedule. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e.index >= 0 && e.sched != nil {
		e.sched.remove(e)
	}
}

// scheduler is a min-heap of events ordered by (at, seq). Fired events are
// recycled through a free list so steady-state scheduling (RFID query loops,
// periodic samplers) allocates nothing.
type scheduler struct {
	clock *Clock
	h     eventHeap
	seq   uint64
	free  []*Event
}

func newScheduler(c *Clock) *scheduler { return &scheduler{clock: c} }

func (s *scheduler) add(at Cycles, fn func()) *Event {
	if at < s.clock.now {
		at = s.clock.now
	}
	s.seq++
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*ev = Event{at: at, seq: s.seq, fn: fn, sched: s}
	} else {
		ev = &Event{at: at, seq: s.seq, fn: fn, sched: s}
	}
	heap.Push(&s.h, ev)
	return ev
}

// release returns a fired event to the free list. Cancelled events are left
// to the garbage collector instead: user code may hold their handles and
// call Cancel again later, which must stay a no-op.
func (s *scheduler) release(ev *Event) {
	ev.fn = nil
	s.free = append(s.free, ev)
}

func (s *scheduler) peek() (*Event, bool) {
	if len(s.h) == 0 {
		return nil, false
	}
	return s.h[0], true
}

func (s *scheduler) pop() *Event {
	ev := heap.Pop(&s.h).(*Event)
	ev.index = -1
	return ev
}

func (s *scheduler) remove(ev *Event) {
	heap.Remove(&s.h, ev.index)
	ev.index = -1
}

func (s *scheduler) len() int { return len(s.h) }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// RNG is a deterministic random source. All stochastic models (harvest
// jitter, component variation, sensor noise, RF corruption) draw from an RNG
// seeded per experiment, so results are reproducible.
type RNG struct {
	r   *rand.Rand
	src countingSource
}

// countingSource feeds rand.Rand from an lfSource and counts Int63 draws,
// so a stream position can be captured (State) and replayed
// (RestoreState). It deliberately does NOT implement rand.Source64:
// rand.Rand then derives Uint64 from two Int63 draws with exactly the bit
// layout the underlying source's own Uint64 uses, so hiding Source64
// changes no stream while funneling every consumption through the counted
// Int63.
//
// The first rngPrefix draws after a (re)seed come straight from the seed
// words (seedOutput), so they need no register. Draw rngPrefix seeds the
// register, allocating it at the first such draw ever, and fast-forwards
// it past the prefix; every later draw reads the register. Many RNGs are
// drawn a few times or not at all (a harvester whose noise is switched
// off, a device stream that only seeds Splits, the part variation of an
// EDB connection), and those cost no register.
type countingSource struct {
	g     lfSource // g.vec is nil until draw rngPrefix
	seed  int64
	draws uint64
}

// rngPrefix is the number of draws a stream serves without a register. A
// prefix draw computes two seed words, so a stream that outgrows the
// prefix pays 2·rngPrefix seed words on top of the register's 607, 5%
// more. Sixteen covers the short streams in use with room to spare: a
// device stream that only seeds Splits takes one draw, and the part
// variation of an EDB connection takes 2 to 12. It must stay below
// rngTap, where seedOutput stops holding.
const rngPrefix = 16

func (s *countingSource) Int63() int64 {
	if s.draws <= rngPrefix {
		return s.prefixDraw()
	}
	s.draws++
	return int64(s.g.Uint64() & rngMask)
}

// prefixDraw serves draws 0 through rngPrefix: from the seed words before
// rngPrefix, and at rngPrefix by building the register in the state the
// prefix left it in.
func (s *countingSource) prefixDraw() int64 {
	k := s.draws
	s.draws++
	if k < rngPrefix {
		return int64(seedOutput(s.seed, int(k)) & rngMask)
	}
	s.g.seed(s.seed)
	for i := 0; i < rngPrefix; i++ {
		s.g.Uint64()
	}
	return int64(s.g.Uint64() & rngMask)
}

func (s *countingSource) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
}

// RNGState identifies a position in an RNG's deterministic stream: the seed
// plus the number of source draws consumed. Two RNGs with equal states
// produce identical futures.
type RNGState struct {
	Seed  int64
	Draws uint64

	// reg, set by Snapshot past the prefix, is a copy of the register at
	// Draws, which RestoreState copies instead of replaying the stream.
	reg *lfSource
}

// NewRNG returns a deterministic RNG with the given seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{src: countingSource{seed: seed}}
	g.r = rand.New(&g.src)
	return g
}

// State captures the RNG's stream position for a machine snapshot.
func (g *RNG) State() RNGState { return RNGState{Seed: g.src.seed, Draws: g.src.draws} }

// Snapshot is State plus, once the stream has a register, a copy of it
// (4,856 B), so that RestoreState costs O(register) instead of a replay of
// every draw: the form for snapshots that are restored many times.
func (g *RNG) Snapshot() RNGState {
	var st RNGState
	g.SnapshotInto(&st)
	return st
}

// SnapshotInto is Snapshot into *st, reusing the register copy st holds
// from an earlier Snapshot: for callers that replace a state nothing will
// restore any more.
func (g *RNG) SnapshotInto(st *RNGState) {
	reg := st.reg
	*st = g.State()
	if g.src.draws > rngPrefix {
		if reg == nil {
			reg = &lfSource{vec: new([rngLen]int64)}
		}
		*reg.vec = *g.src.g.vec
		reg.tap, reg.feed = g.src.g.tap, g.src.g.feed
		st.reg = reg
	}
}

// RestoreState repositions the RNG to a captured stream position. A state
// from Snapshot carries its register, which is copied. Otherwise, when the
// target is ahead of the current position on the same seed the source is
// advanced in place, and else it restarts the target seed's stream. A
// target inside the prefix needs no register work at all, and one past it
// reseeds the register in place and advances it.
func (g *RNG) RestoreState(st RNGState) {
	if st.reg != nil {
		g.src.seed, g.src.draws = st.Seed, st.Draws
		if g.src.g.vec == nil {
			g.src.g.vec = new([rngLen]int64)
		}
		*g.src.g.vec = *st.reg.vec
		g.src.g.tap, g.src.g.feed = st.reg.tap, st.reg.feed
		return
	}
	if st.Seed != g.src.seed || st.Draws < g.src.draws {
		g.src.Seed(st.Seed)
	}
	// A prefix draw leaves nothing behind but the count, so skip them.
	if g.src.draws < rngPrefix {
		g.src.draws = min(st.Draws, rngPrefix)
	}
	// Discard at the source level: rand.Rand buffers nothing outside Read
	// (unused here), so source position fully determines the stream.
	for g.src.draws < st.Draws {
		g.src.Int63()
	}
}

// Float64 returns a uniform value in [0, 1). It is rand.Rand.Float64 —
// the same conversion and the same resample of a draw that rounds up to 1 —
// on the counted source directly, skipping rand.Rand's interface dispatch:
// every energy quantum of a noisy harvester draws one.
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// NormFloat64 returns a standard-normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uint16 returns a uniform 16-bit value (e.g. for RN16 handles).
func (g *RNG) Uint16() uint16 { return uint16(g.r.Uint32()) }

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
func (g *RNG) Jitter(base, frac float64) float64 {
	return base * (1 + frac*(2*g.Float64()-1))
}

// Gaussian returns a normal value with the given mean and standard deviation.
func (g *RNG) Gaussian(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.Float64() < p }

// Split derives a child RNG whose stream is independent of, but
// deterministically derived from, this one. Use it to give each subsystem
// its own stream so adding draws in one place does not perturb another.
func (g *RNG) Split(label string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ g.r.Int63())
}

func (e *Event) String() string {
	return fmt.Sprintf("event@%d", e.at)
}
