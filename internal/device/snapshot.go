package device

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// Snapshot is a full machine snapshot: memory contents, clock position,
// monitor sampling phases, supply and RNG stream state, peripheral queues,
// and statistics. Restoring one onto a structurally identical device (same
// memory map, same monitor/probe registration order, same harvester
// profile) resumes execution bit-for-bit.
//
// Snapshots can only be taken at firmware-quiescent points: the firmware's
// execution context is a live Go stack and scheduled events are closures,
// neither of which can be serialized. Snapshot therefore refuses to run
// while clock events are pending, and callers must not invoke it from
// inside Program.Main. The warm-session pool takes its snapshot after the
// first charge phase, before Main has ever executed — a point every cold
// run passes through with exactly this state.
type Snapshot struct {
	Now      sim.Cycles
	Regions  []RegionSnap
	Monitors []sim.Cycles // next-sample cycle per monitor, in registration order

	Supply       energy.SupplyState
	Harvester    sim.RNGState
	HasHarvester bool
	RNG          sim.RNGState

	Loads            map[string]units.Amps
	LowPower         bool
	InterruptPending bool
	Stats            Stats

	GPIO        map[string]GPIOLineState
	GPIOVersion uint64
	UARTRx      []byte
	UARTSent    uint64
	RFRx        []RFFrame
}

// RegionSnap is one memory region's full contents.
type RegionSnap struct {
	Name string
	Data []byte
}

// GPIOLineState is one GPIO line's captured state.
type GPIOLineState struct {
	Level   bool
	Toggles uint64
}

// MemoryBytes returns the total size of the captured region contents — the
// denominator of the delta-vs-full snapshot benchmark.
func (s *Snapshot) MemoryBytes() int {
	n := 0
	for _, r := range s.Regions {
		n += len(r.Data)
	}
	return n
}

// Snapshot captures the machine state. It fails if clock events are
// pending (their callbacks cannot ride along in a snapshot).
func (d *Device) Snapshot() (*Snapshot, error) {
	if n := d.Clock.Pending(); n != 0 {
		return nil, fmt.Errorf("device: cannot snapshot with %d scheduled events pending", n)
	}
	s := &Snapshot{
		Now:              d.Clock.Now(),
		Supply:           d.Supply.SnapshotState(),
		RNG:              d.RNG.State(),
		LowPower:         d.lowPower,
		InterruptPending: d.interruptPending,
		Stats:            d.stats,
		GPIOVersion:      d.GPIO.version,
		UARTSent:         d.UART.bytesSent,
	}
	for _, r := range d.Mem.Regions() {
		s.Regions = append(s.Regions, RegionSnap{Name: r.Name, Data: r.Snapshot()})
	}
	for _, slot := range d.monitors {
		s.Monitors = append(s.Monitors, slot.next)
	}
	if sh, ok := d.Supply.Harvester.(energy.StatefulHarvester); ok {
		s.Harvester, s.HasHarvester = sh.HarvesterState()
	}
	if len(d.loads) > 0 {
		s.Loads = make(map[string]units.Amps, len(d.loads))
		for _, e := range d.loads {
			s.Loads[e.name] = e.amps
		}
	}
	if len(d.GPIO.lines) > 0 {
		s.GPIO = make(map[string]GPIOLineState, len(d.GPIO.lines))
		for name, l := range d.GPIO.lines {
			s.GPIO[name] = GPIOLineState{Level: l.level, Toggles: l.toggles}
		}
	}
	if len(d.UART.rxq) > 0 {
		s.UARTRx = append([]byte(nil), d.UART.rxq...)
	}
	for _, f := range d.RF.rxq {
		f.Bits = append([]byte(nil), f.Bits...)
		s.RFRx = append(s.RFRx, f)
	}
	return s, nil
}

// Restore applies a snapshot to a structurally identical device. Region
// restores fire each region's WriteHook, so derived caches (the ISA's
// predecoded-instruction cache) invalidate automatically.
func (d *Device) Restore(s *Snapshot) error {
	if err := d.Clock.SetNow(s.Now); err != nil {
		return fmt.Errorf("device: restore: %w", err)
	}
	if len(s.Monitors) != len(d.monitors) {
		return fmt.Errorf("device: restore: snapshot has %d monitors, device has %d",
			len(s.Monitors), len(d.monitors))
	}
	for _, rs := range s.Regions {
		var r *memsim.Region
		for _, cand := range d.Mem.Regions() {
			if cand.Name == rs.Name {
				r = cand
				break
			}
		}
		if r == nil {
			return fmt.Errorf("device: restore: no region named %q", rs.Name)
		}
		if err := r.Restore(rs.Data); err != nil {
			return fmt.Errorf("device: restore: %w", err)
		}
	}
	for i, next := range s.Monitors {
		d.monitors[i].next = next
	}
	d.monitorsDue = 0 // restored sample cycles may be earlier
	d.Supply.RestoreState(s.Supply)
	if s.HasHarvester {
		if sh, ok := d.Supply.Harvester.(energy.StatefulHarvester); ok {
			sh.RestoreHarvesterState(s.Harvester)
		}
	}
	d.RNG.RestoreState(s.RNG)

	d.loads = nil
	d.pendSupply = 0
	for k, v := range s.Loads {
		d.SetLoad(k, v)
	}
	d.recalcLoadSum()
	d.lowPower = s.LowPower
	d.interruptPending = s.InterruptPending
	d.stats = s.Stats
	d.hasDeadline = false

	for name, st := range s.GPIO {
		l := d.GPIO.line(name)
		l.level = st.Level
		l.toggles = st.Toggles
	}
	d.GPIO.version = s.GPIOVersion
	d.UART.rxq = append(d.UART.rxq[:0], s.UARTRx...)
	d.UART.bytesSent = s.UARTSent
	d.RF.rxq = d.RF.rxq[:0]
	for _, f := range s.RFRx {
		f.Bits = append([]byte(nil), f.Bits...)
		d.RF.rxq = append(d.RF.rxq, f)
	}
	return nil
}
