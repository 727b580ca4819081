// Package memsim simulates the target device's byte-addressed memory: a
// volatile SRAM region and a non-volatile FRAM region in a 16-bit address
// space, mirroring the MSP430FR-class MCU on the WISP 5.
//
// Firmware in this reproduction manipulates data structures through real
// simulated addresses — a linked-list node's next pointer is a 16-bit
// address stored in simulated FRAM. This matters: the paper's intermittence
// bugs (a reboot interrupting an append, leaving a NULL next pointer that a
// later remove dereferences into a wild write) reproduce mechanically here,
// because a wild pointer really does read open bus or clobber simulated
// bytes.
//
// A reboot clears SRAM (and the register file, handled by the device) but
// retains FRAM, exactly as §1 of the paper describes.
package memsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Addr is a 16-bit address in the target's memory map.
type Addr uint16

// Null is the null pointer. The low page of the address space is unmapped,
// so dereferencing Null (or any address near it) faults, as on real
// hardware where low memory holds write-protected peripheral registers.
const Null Addr = 0

// Default memory map, modeled on the MSP430FR5969 (WISP 5's MCU):
// 2 KiB SRAM at 0x1C00, ~48 KiB FRAM at 0x4400.
const (
	SRAMBase Addr = 0x1C00
	SRAMSize      = 0x0800 // 2 KiB
	FRAMBase Addr = 0x4400
	FRAMSize      = 0xBB00 // 47.75 KiB
)

// Dirty tracking granularity. 64 bytes splits the 2 KiB SRAM into 32 pages
// and the FRAM into ~764: fine enough that a checkpoint touching a few
// dozen bytes dirties only one or two pages, coarse enough that the whole
// bitmap for the full address space is 100 words.
const (
	PageSize  = 64
	pageShift = 6
)

// Fault describes an illegal memory access: a read or write to an address
// outside every mapped region. The device treats an untrapped Fault the way
// real hardware treats a wild access — the MCU wedges until the next reset.
type Fault struct {
	Addr  Addr
	Write bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("memsim: illegal %s at %#04x", op, uint16(f.Addr))
}

// Region is a contiguous mapped range of memory.
//
// Only the written prefix is held in memory: data covers the region from
// its start up to the page-rounded end of the highest byte ever stored,
// and every byte past it reads as zero. Most targets touch the first page
// or two of each region, so a fleet of tags carries a few hundred bytes of
// target memory each instead of 50 KB. Snapshot, SnapshotInto, Restore,
// ApplyDelta and EnableDirtyTracking materialise the whole region first,
// so the snapshot and dirty-page code only ever sees full-length data.
type Region struct {
	Name     string
	Base     Addr
	Volatile bool

	data []byte // the written prefix; len(data) == size once materialised
	size int
	brk  int // bump-allocator high-water mark

	// Access counters, useful for tests and for energy models that charge
	// FRAM accesses differently from SRAM.
	Reads  uint64
	Writes uint64

	// WriteHook, if set, observes every mutation of the region's contents:
	// per-address stores and bulk operations (Clear, Reset, Restore) alike.
	// The ISA's predecoded-instruction cache hangs its invalidation here so
	// self-modifying (or self-corrupting) programs stay faithful.
	WriteHook func(a Addr, n int)

	// ReadHook, if set, observes every load from the region. The exhaustive
	// intermittence checker hangs its WAR (read-before-write) detector here;
	// nil keeps the plain read path branch-predictable.
	ReadHook func(a Addr, n int)

	// dirty, when non-nil, is a write-barrier bitmap with one bit per
	// PageSize-byte page, set on every store. It makes DeltaSnapshot and
	// RevertDirty O(dirty pages) instead of O(region size). nil (the
	// default) keeps the plain execution path branch-predictable and
	// allocation-free.
	dirty []uint64
}

// NewRegion returns a zeroed region of the given size.
func NewRegion(name string, base Addr, size int, volatile bool) *Region {
	return &Region{Name: name, Base: base, Volatile: volatile, size: size}
}

// Size returns the region's length in bytes.
func (r *Region) Size() int { return r.size }

// End returns one past the last mapped address.
func (r *Region) End() Addr { return r.Base + Addr(r.size) }

// grow extends the written prefix, zero-filled, to cover the first n bytes
// of the region, rounded up to a whole page.
func (r *Region) grow(n int) {
	n = min((n+PageSize-1)&^(PageSize-1), r.size)
	r.data = append(r.data, make([]byte, n-len(r.data))...)
}

// materialize extends the written prefix to the whole region.
func (r *Region) materialize() {
	if len(r.data) < r.size {
		r.grow(r.size)
	}
}

// Contains reports whether a falls inside the region.
func (r *Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Alloc reserves n bytes (word-aligned) from the region's bump allocator and
// returns the base address. Firmware uses this at flash time to lay out its
// statically allocated structures; there is no free.
func (r *Region) Alloc(n int) (Addr, error) {
	if n < 0 {
		return Null, fmt.Errorf("memsim: negative allocation %d in %s", n, r.Name)
	}
	n = (n + 1) &^ 1 // word alignment
	if r.brk+n > r.size {
		return Null, fmt.Errorf("memsim: %s exhausted (%d bytes in use, %d requested, %d total)",
			r.Name, r.brk, n, r.size)
	}
	a := r.Base + Addr(r.brk)
	r.brk += n
	return a, nil
}

// AllocWords reserves n 16-bit words.
func (r *Region) AllocWords(n int) (Addr, error) { return r.Alloc(2 * n) }

// InUse returns the number of allocated bytes.
func (r *Region) InUse() int { return r.brk }

// Clear zeroes the region's contents (but not its allocation map — the
// layout is part of the flashed program image). Used on SRAM at reboot.
func (r *Region) Clear() {
	clear(r.data)
	r.markAll()
	if r.WriteHook != nil {
		r.WriteHook(r.Base, r.size)
	}
}

// Reset zeroes contents and the allocator. Used when re-flashing.
func (r *Region) Reset() {
	r.Clear()
	r.brk = 0
	r.Reads = 0
	r.Writes = 0
}

// Snapshot returns a copy of the region's contents. Checkpointing runtimes
// use it to capture volatile state.
func (r *Region) Snapshot() []byte {
	r.materialize()
	cp := make([]byte, len(r.data))
	copy(cp, r.data)
	return cp
}

// SnapshotInto is Snapshot into a reusable buffer: it copies the region's
// contents into buf (grown if needed) and returns the resized slice, so
// hot-loop consumers like the explorer's hash cross-check avoid a full
// image allocation per capture.
func (r *Region) SnapshotInto(buf []byte) []byte {
	r.materialize()
	if cap(buf) < len(r.data) {
		buf = make([]byte, len(r.data))
	}
	buf = buf[:len(r.data)]
	copy(buf, r.data)
	return buf
}

// pageCount returns the number of PageSize-byte pages covering the region.
func (r *Region) pageCount() int { return (r.size + PageSize - 1) / PageSize }

// EnableDirtyTracking allocates the page-dirty bitmap (all clean) and turns
// the write barrier on. Idempotent; existing dirty bits are preserved.
func (r *Region) EnableDirtyTracking() {
	if r.dirty == nil {
		r.materialize()
		r.dirty = make([]uint64, (r.pageCount()+63)/64)
	}
}

// DirtyTracking reports whether the write barrier is active.
func (r *Region) DirtyTracking() bool { return r.dirty != nil }

// ResetDirty clears every dirty bit, making the current contents the new
// baseline for the next DeltaSnapshot/RevertDirty.
func (r *Region) ResetDirty() {
	for i := range r.dirty {
		r.dirty[i] = 0
	}
}

// DirtyPageCount returns the number of pages written since the last reset.
func (r *Region) DirtyPageCount() int {
	n := 0
	for _, w := range r.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// TakeDirtyPages returns the indices of the pages written since the last
// reset, in ascending order, and clears the bitmap. It returns nil when
// dirty tracking is off. Unlike DeltaSnapshot it captures no contents —
// it is the cheap primitive for consumers that copy pages through their
// own (e.g. energy-costed) channel.
func (r *Region) TakeDirtyPages() []int {
	if r.dirty == nil {
		return nil
	}
	var out []int
	r.forEachDirty(func(p int) { out = append(out, p) })
	r.ResetDirty()
	return out
}

// DirtyPages returns the indices of the pages written since the last reset,
// in ascending order, without clearing the bitmap — a non-consuming peek for
// consumers (e.g. dirty-size-aware checkpoint placement) that want to know
// how much a capture *would* copy. It returns nil when tracking is off.
func (r *Region) DirtyPages() []int {
	if r.dirty == nil {
		return nil
	}
	var out []int
	r.forEachDirty(func(p int) { out = append(out, p) })
	return out
}

// DiffDirty captures, without consuming the dirty bitmap, exactly the dirty
// pages whose contents differ byte-for-byte from a full baseline snapshot,
// in ascending page order. Because the dirty set is a superset of the pages
// that differ from the baseline (writes only ever set bits), the result is
// a canonical representation of the region's divergence from the baseline:
// two states with equal contents produce identical deltas regardless of the
// write path that reached them (written-then-reverted pages are excluded).
// The exhaustive intermittence checker uses this as its state encoding.
func (r *Region) DiffDirty(baseline []byte) (*Delta, error) {
	d := &Delta{Region: r.Name}
	if err := r.ForEachDiff(baseline, func(off int, page []byte) {
		d.Pages = append(d.Pages, DeltaPage{Off: off, Data: bytes.Clone(page)})
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// ForEachDiff calls fn, in ascending page order, with the byte offset and
// live contents of each dirty page that differs from a full baseline
// snapshot: the pages DiffDirty would copy, visited without copying them.
// page aliases the region and stays valid only until the region is next
// written, so a caller can hash every page first and copy only the
// divergences it decides to keep.
func (r *Region) ForEachDiff(baseline []byte, fn func(off int, page []byte)) error {
	if r.dirty == nil {
		return fmt.Errorf("memsim: dirty tracking disabled on %s", r.Name)
	}
	if len(baseline) != len(r.data) {
		return fmt.Errorf("memsim: baseline size %d does not match %s size %d",
			len(baseline), r.Name, len(r.data))
	}
	r.forEachDirty(func(p int) {
		lo := p << pageShift
		hi := min(lo+PageSize, len(r.data))
		if !bytes.Equal(r.data[lo:hi], baseline[lo:hi]) {
			fn(lo, r.data[lo:hi:hi])
		}
	})
	return nil
}

// markAll sets every page dirty (bulk mutations: Clear, Restore).
func (r *Region) markAll() {
	if r.dirty == nil {
		return
	}
	for i := range r.dirty {
		r.dirty[i] = ^uint64(0)
	}
	// Mask phantom bits past the last page so popcounts stay exact.
	if tail := uint(r.pageCount()) % 64; tail != 0 {
		r.dirty[len(r.dirty)-1] = (1 << tail) - 1
	}
}

// markRange sets the dirty bits covering [off, off+n).
func (r *Region) markRange(off, n int) {
	if r.dirty == nil || n <= 0 {
		return
	}
	last := uint(off+n-1) >> pageShift
	for p := uint(off) >> pageShift; p <= last; p++ {
		r.dirty[p>>6] |= 1 << (p & 63)
	}
}

// Delta is a sparse snapshot: the contents of exactly the pages written
// since the dirty bitmap was last reset. Capturing and applying one costs
// O(dirty pages), not O(region size).
type Delta struct {
	Region string
	Pages  []DeltaPage
}

// DeltaPage is one dirtied page: its byte offset within the region and a
// copy of its contents (short at the region tail).
type DeltaPage struct {
	Off  int
	Data []byte
}

// Bytes returns the page payload size — what a wire encoding of the delta
// would carry, and the numerator of the delta-vs-full benchmark.
func (d *Delta) Bytes() int {
	n := 0
	for _, p := range d.Pages {
		n += len(p.Data)
	}
	return n
}

// DeltaSnapshot captures every dirty page into a sparse Delta and clears
// the dirty bitmap, so successive captures each cost O(pages written since
// the previous capture). It returns nil if dirty tracking is disabled.
func (r *Region) DeltaSnapshot() *Delta {
	if r.dirty == nil {
		return nil
	}
	d := &Delta{Region: r.Name}
	r.forEachDirty(func(p int) {
		lo := p << pageShift
		hi := lo + PageSize
		if hi > len(r.data) {
			hi = len(r.data)
		}
		cp := make([]byte, hi-lo)
		copy(cp, r.data[lo:hi])
		d.Pages = append(d.Pages, DeltaPage{Off: lo, Data: cp})
	})
	r.ResetDirty()
	return d
}

// ApplyDelta writes a sparse delta's pages back into the region, firing the
// WriteHook (and the write barrier) for each page.
func (r *Region) ApplyDelta(d *Delta) error {
	if d == nil {
		return nil
	}
	r.materialize()
	for _, p := range d.Pages {
		if p.Off < 0 || p.Off+len(p.Data) > len(r.data) {
			return fmt.Errorf("memsim: delta page [%d,%d) outside %s (%d bytes)",
				p.Off, p.Off+len(p.Data), r.Name, len(r.data))
		}
		copy(r.data[p.Off:], p.Data)
		r.markRange(p.Off, len(p.Data))
		if r.WriteHook != nil {
			r.WriteHook(r.Base+Addr(p.Off), len(p.Data))
		}
	}
	return nil
}

// RevertDirty copies every dirtied page back from a full baseline snapshot
// (as returned by Snapshot) and clears the dirty bitmap — an O(dirty) undo
// of all writes since the baseline was captured. It returns the number of
// pages reverted.
func (r *Region) RevertDirty(baseline []byte) (int, error) {
	if r.dirty == nil {
		return 0, fmt.Errorf("memsim: dirty tracking disabled on %s", r.Name)
	}
	if len(baseline) != len(r.data) {
		return 0, fmt.Errorf("memsim: baseline size %d does not match %s size %d",
			len(baseline), r.Name, len(r.data))
	}
	pages := 0
	r.forEachDirty(func(p int) {
		lo := p << pageShift
		hi := lo + PageSize
		if hi > len(r.data) {
			hi = len(r.data)
		}
		copy(r.data[lo:hi], baseline[lo:hi])
		if r.WriteHook != nil {
			r.WriteHook(r.Base+Addr(lo), hi-lo)
		}
		pages++
	})
	r.ResetDirty()
	return pages, nil
}

// forEachDirty calls fn with each dirty page index in ascending order.
func (r *Region) forEachDirty(fn func(page int)) {
	for wi, w := range r.dirty {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			fn(wi*64 + b)
		}
	}
}

// Restore overwrites the region's contents from a snapshot.
func (r *Region) Restore(snap []byte) error {
	if len(snap) != r.size {
		return fmt.Errorf("memsim: snapshot size %d does not match %s size %d",
			len(snap), r.Name, r.size)
	}
	r.materialize()
	copy(r.data, snap)
	r.markAll()
	if r.WriteHook != nil {
		r.WriteHook(r.Base, r.size)
	}
	return nil
}

// Memory is the target's full address space: an ordered set of regions.
type Memory struct {
	regions []*Region
	// last caches the most recently resolved region: accesses cluster
	// (stack, then a statistics block, then code), so the hit rate is high
	// and a miss just falls through to the ordered scan.
	last *Region
}

// NewMemory returns an address space containing the given regions. Regions
// must not overlap.
func NewMemory(regions ...*Region) (*Memory, error) {
	m := &Memory{}
	for _, r := range regions {
		for _, prev := range m.regions {
			if r.Base < prev.End() && prev.Base < r.End() {
				return nil, fmt.Errorf("memsim: regions %s and %s overlap", prev.Name, r.Name)
			}
		}
		m.regions = append(m.regions, r)
	}
	return m, nil
}

// NewTargetMemory returns the default WISP-like memory map: SRAM + FRAM.
func NewTargetMemory() (*Memory, *Region, *Region) {
	sram := NewRegion("SRAM", SRAMBase, SRAMSize, true)
	fram := NewRegion("FRAM", FRAMBase, FRAMSize, false)
	m, err := NewMemory(sram, fram)
	if err != nil {
		panic(err) // static layout; cannot overlap
	}
	return m, sram, fram
}

// RegionAt returns the region containing a, or nil if a is unmapped.
func (m *Memory) RegionAt(a Addr) *Region {
	if r := m.last; r != nil && r.Contains(a) {
		return r
	}
	for _, r := range m.regions {
		if r.Contains(a) {
			m.last = r
			return r
		}
	}
	return nil
}

// Regions returns the mapped regions.
func (m *Memory) Regions() []*Region { return m.regions }

// ReadByte reads one byte, faulting on unmapped addresses.
func (m *Memory) ReadByteAt(a Addr) (byte, error) {
	r := m.RegionAt(a)
	if r == nil {
		return 0, &Fault{Addr: a}
	}
	r.Reads++
	if r.ReadHook != nil {
		r.ReadHook(a, 1)
	}
	if off := int(a - r.Base); off < len(r.data) {
		return r.data[off], nil
	}
	return 0, nil
}

// WriteByte writes one byte, faulting on unmapped addresses.
func (m *Memory) WriteByteAt(a Addr, b byte) error {
	r := m.RegionAt(a)
	if r == nil {
		return &Fault{Addr: a, Write: true}
	}
	r.Writes++
	off := int(a - r.Base)
	if off >= len(r.data) {
		r.grow(off + 1)
	}
	r.data[off] = b
	if r.dirty != nil {
		p := uint(off) >> pageShift
		r.dirty[p>>6] |= 1 << (p & 63)
	}
	if r.WriteHook != nil {
		r.WriteHook(a, 1)
	}
	return nil
}

// ReadWord reads a little-endian 16-bit word. A word access that straddles a
// region boundary faults, as it would on hardware.
func (m *Memory) ReadWord(a Addr) (uint16, error) {
	r := m.RegionAt(a)
	if r == nil || !r.Contains(a+1) {
		return 0, &Fault{Addr: a}
	}
	r.Reads++
	if r.ReadHook != nil {
		r.ReadHook(a, 2)
	}
	if off := int(a - r.Base); off+2 <= len(r.data) {
		return binary.LittleEndian.Uint16(r.data[off:]), nil
	} else if off < len(r.data) {
		return uint16(r.data[off]), nil // the high byte lies past the written prefix
	}
	return 0, nil
}

// WriteWord writes a little-endian 16-bit word.
func (m *Memory) WriteWord(a Addr, v uint16) error {
	r := m.RegionAt(a)
	if r == nil || !r.Contains(a+1) {
		return &Fault{Addr: a, Write: true}
	}
	r.Writes++
	off := int(a - r.Base)
	if off+2 > len(r.data) {
		r.grow(off + 2)
	}
	binary.LittleEndian.PutUint16(r.data[off:], v)
	if r.dirty != nil {
		p := uint(off) >> pageShift
		r.dirty[p>>6] |= 1 << (p & 63)
		p = (uint(off) + 1) >> pageShift
		r.dirty[p>>6] |= 1 << (p & 63)
	}
	if r.WriteHook != nil {
		r.WriteHook(a, 2)
	}
	return nil
}

// ReadBytes copies n bytes starting at a into a new slice.
func (m *Memory) ReadBytes(a Addr, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, err := m.ReadByteAt(a + Addr(i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// WriteBytes writes the given bytes starting at a.
func (m *Memory) WriteBytes(a Addr, data []byte) error {
	for i, b := range data {
		if err := m.WriteByteAt(a+Addr(i), b); err != nil {
			return err
		}
	}
	return nil
}

// EnableDirtyTracking turns on the page-dirty write barrier for every
// mapped region.
func (m *Memory) EnableDirtyTracking() {
	for _, r := range m.regions {
		r.EnableDirtyTracking()
	}
}

// ClearVolatile zeroes every volatile region — the effect of a power
// failure on memory.
func (m *Memory) ClearVolatile() {
	for _, r := range m.regions {
		if r.Volatile {
			r.Clear()
		}
	}
}
