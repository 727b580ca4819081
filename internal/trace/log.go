package trace

import (
	"unsafe"

	"repro/internal/sim"
)

// Log is an event stream. With Limit > 0 it behaves as a ring: once full,
// the oldest quarter of the events is discarded (Dropped counts them),
// bounding memory for long passive-monitoring sessions.
//
// A log stores each event as a 16-byte record instead of a 48-byte Event:
// the kind and text are interned together as one symbol, so a record holds
// no string headers. Records fill fixed-size chunks. No record a LogState
// can see is ever written again, so Snapshot and Restore share the
// recorded history instead of copying it: the log a state was taken from
// appends past it, and a restored log copies the one partly filled chunk
// before its first append. The symbol table and the side table of wide
// Args only grow between discards; a discard that finds either past twice
// Limit rebuilds both from the retained events, so a log whose events
// carry many distinct texts stays bounded by Limit too. The log counts its
// retained records per symbol as it goes, so Count and Kinds cost
// O(symbols), not O(events); a state shares the counts copy-on-write.
type Log struct {
	Name string
	// Limit bounds the retained events (0 = unbounded).
	Limit int
	// Dropped counts events discarded to honor Limit. Dropped + i is the
	// position of retained event i in the whole stream, which stays valid
	// across discards.
	Dropped uint64

	chunks [][]record // every chunk but the last is full
	off    int        // discarded records at the front of chunks[0]
	n      int        // retained records
	shared bool       // the last chunk is a restored state's: copy it before appending

	syms    []symbol
	index   map[symbol]uint32 // syms' lookup; nil until needed after Restore
	lastSym uint32            // the symbol the previous Add interned
	wide    []int             // Args that do not fit a record

	counts       []int // retained records per symbol, indexed like syms
	countsShared bool  // a LogState holds counts too: copy it before changing it
}

// record is an Event as a Log stores it.
type record struct {
	at  sim.Cycles
	arg int32  // the event's Arg, or its index in wide when sym&wideArg
	sym uint32 // index in syms, plus wideArg
}

// symbol is an interned (kind, text) pair.
type symbol struct{ kind, text string }

const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits // records per chunk (16 KB)
	wideArg   = 1 << 31
)

// NewLog returns an empty unbounded event log.
func NewLog(name string) *Log { return &Log{Name: name} }

// Add appends an event, discarding the oldest quarter of the log when the
// limit is reached (batch discard keeps Add amortized O(1)).
func (l *Log) Add(e Event) {
	if l.Limit > 0 && l.n >= l.Limit {
		l.discard(max(l.Limit/4, 1))
	}
	l.push(e)
}

// push appends an event without regard to Limit.
func (l *Log) push(e Event) {
	if l.countsShared {
		l.ownCounts()
	}
	r := record{at: e.At, arg: int32(e.Arg), sym: l.intern(e.Kind, e.Text)}
	if int(r.arg) != e.Arg {
		r.arg = int32(len(l.wide))
		r.sym |= wideArg
		l.wide = append(l.wide, e.Arg)
	}
	last := len(l.chunks) - 1
	switch {
	case last < 0 || len(l.chunks[last]) == chunkLen:
		l.chunks = append(l.chunks, make([]record, 0, chunkLen))
		last++
	case l.shared:
		c := make([]record, len(l.chunks[last]), chunkLen)
		copy(c, l.chunks[last])
		l.chunks[last] = c
	}
	l.shared = false
	l.chunks[last] = append(l.chunks[last], r)
	l.counts[r.sym&^wideArg]++
	l.n++
}

// ownCounts gives the log a copy of the counts a LogState shares.
func (l *Log) ownCounts() {
	l.counts = append([]int(nil), l.counts...)
	l.countsShared = false
}

// discard drops the k oldest events, releasing chunks that empties, and
// compacts the log once its tables have outgrown the limit.
func (l *Log) discard(k int) {
	if l.countsShared {
		l.ownCounts()
	}
	for j := l.off; j < l.off+k; j++ {
		l.counts[l.chunks[j>>chunkBits][j&(chunkLen-1)].sym&^wideArg]--
	}
	l.Dropped += uint64(k)
	l.off += k
	l.n -= k
	for len(l.chunks) > 1 && l.off >= chunkLen {
		l.chunks[0] = nil
		l.chunks = l.chunks[1:]
		l.off -= chunkLen
	}
	if len(l.syms) > 2*l.Limit || len(l.wide) > 2*l.Limit {
		l.compact()
	}
}

// compact rewrites the retained events into fresh chunks and tables that
// hold only what they reference. A LogState keeps the old storage.
func (l *Log) compact() {
	old := *l
	l.chunks, l.off, l.n, l.shared = nil, 0, 0, false
	l.syms, l.index, l.lastSym, l.wide = nil, nil, 0, nil
	l.counts, l.countsShared = nil, false
	old.scan(func(rs []record) {
		for _, r := range rs {
			l.push(old.event(r))
		}
	})
}

// intern returns the symbol of a (kind, text) pair, adding it if new.
func (l *Log) intern(kind, text string) uint32 {
	if s := l.lastSym; int(s) < len(l.syms) && l.syms[s].kind == kind && l.syms[s].text == text {
		return s
	}
	if l.index == nil {
		l.index = make(map[symbol]uint32, len(l.syms))
		for i, s := range l.syms {
			l.index[s] = uint32(i)
		}
	}
	key := symbol{kind, text}
	s, ok := l.index[key]
	if !ok {
		s = uint32(len(l.syms))
		l.syms = append(l.syms, key)
		l.counts = append(l.counts, 0)
		l.index[key] = s
	}
	l.lastSym = s
	return s
}

// Len returns the number of retained events.
func (l *Log) Len() int { return l.n }

// At returns retained event i, oldest first.
func (l *Log) At(i int) Event {
	j := l.off + i
	return l.event(l.chunks[j>>chunkBits][j&(chunkLen-1)])
}

func (l *Log) event(r record) Event {
	s := l.syms[r.sym&^wideArg]
	arg := int(r.arg)
	if r.sym&wideArg != 0 {
		arg = l.wide[uint32(r.arg)]
	}
	return Event{At: r.at, Kind: s.kind, Arg: arg, Text: s.text}
}

// scan calls fn with each run of retained records, oldest first.
func (l *Log) scan(fn func([]record)) {
	for k, c := range l.chunks {
		if k == 0 {
			c = c[l.off:]
		}
		fn(c)
	}
}

// Events returns a copy of the retained events, oldest first.
func (l *Log) Events() []Event {
	out := make([]Event, 0, l.n)
	l.scan(func(rs []record) {
		for _, r := range rs {
			out = append(out, l.event(r))
		}
	})
	return out
}

// Count returns the number of events of the given kind ("" counts all).
func (l *Log) Count(kind string) int {
	if kind == "" {
		return l.n
	}
	n := 0
	for s, c := range l.counts {
		if l.syms[s].kind == kind {
			n += c
		}
	}
	return n
}

// Kinds returns the number of retained events of each kind.
func (l *Log) Kinds() map[string]int {
	out := make(map[string]int)
	for s, c := range l.counts {
		if c > 0 {
			out[l.syms[s].kind] += c
		}
	}
	return out
}

// Filter returns the events of the given kind.
func (l *Log) Filter(kind string) []Event {
	var out []Event
	l.scan(func(rs []record) {
		for _, r := range rs {
			if l.syms[r.sym&^wideArg].kind == kind {
				out = append(out, l.event(r))
			}
		}
	})
	return out
}

// LogState is a log's retained events and discard count, captured by
// Snapshot and applied by Restore. It shares the log's storage: neither
// the log nor any log restored from the state writes what the state holds.
type LogState struct {
	chunks  [][]record
	off, n  int
	dropped uint64
	syms    []symbol
	wide    []int
	counts  []int
}

// Snapshot captures the retained events in O(chunks), without copying them.
func (l *Log) Snapshot() LogState {
	var st LogState
	l.SnapshotInto(&st)
	return st
}

// SnapshotInto is Snapshot into *st, reusing the chunk list st holds from
// an earlier Snapshot that nothing restores any more.
func (l *Log) SnapshotInto(st *LogState) {
	*st = LogState{
		chunks:  append(st.chunks[:0], l.chunks...),
		off:     l.off,
		n:       l.n,
		dropped: l.Dropped,
		syms:    l.syms[:len(l.syms):len(l.syms)],
		wide:    l.wide[:len(l.wide):len(l.wide)],
		counts:  l.counts[:len(l.counts):len(l.counts)],
	}
	l.countsShared = true
}

// Bytes returns the heap the state holds: its chunks, whole even where
// the state sees part of one, and its symbols with their texts.
func (s LogState) Bytes() int {
	n := len(s.chunks) * chunkLen * int(unsafe.Sizeof(record{}))
	for _, sym := range s.syms {
		n += int(unsafe.Sizeof(sym)) + len(sym.kind) + len(sym.text)
	}
	return n
}

// Restore replaces the retained events and Dropped with a captured state,
// sharing its storage. Name and Limit are kept.
func (l *Log) Restore(s LogState) {
	l.chunks = append(l.chunks[:0], s.chunks...)
	l.off, l.n, l.Dropped = s.off, s.n, s.dropped
	l.shared = true
	l.syms, l.wide = s.syms, s.wide
	l.index, l.lastSym = nil, 0
	l.counts, l.countsShared = s.counts, true
}
