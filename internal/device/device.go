// Package device simulates the target energy-harvesting device: a WISP-like
// platform with an MSP430-class MCU, volatile SRAM, non-volatile FRAM, GPIO,
// UART, I2C, an RF front end, and — crucially — a power supply that makes
// execution intermittent.
//
// Firmware is Go code written against the strict Env API (env.go): every
// load, store, computation, and peripheral operation advances the simulated
// clock and drains the storage capacitor. When the capacitor falls below the
// brown-out threshold mid-operation, the operation panics with
// *PowerFailure; the Runner recovers, clears all volatile state, waits for
// the harvester to recharge the capacitor to the turn-on threshold, and
// re-enters main() — the intermittent execution model of Lucia & Ransford
// that the paper builds on.
package device

import (
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// PowerFailure is panicked by device operations when the supply browns out.
// It unwinds the firmware stack exactly the way a power failure destroys
// volatile execution context.
type PowerFailure struct {
	At sim.Cycles
	V  units.Volts
}

func (p *PowerFailure) Error() string {
	return fmt.Sprintf("power failure at cycle %d (Vcap=%s)", p.At, p.V)
}

// MemoryFault is panicked when firmware performs an illegal memory access
// (e.g. dereferencing a NULL or wild pointer). The Runner models the
// hardware consequence: the MCU wedges, burning energy until brown-out,
// then reboots — and if the fault's root cause persists in non-volatile
// memory, it wedges again every charge cycle, which is precisely the
// "main loop mysteriously stops forever" symptom of §5.3.1.
//
// The *MemoryFault an Env access panics with, and the memsim.Fault it
// points to, belong to the device and are reused: they are valid only until
// that device's next memory fault. A caller that recovers one and keeps it
// must copy both.
type MemoryFault struct {
	At    sim.Cycles
	Fault *memsim.Fault
}

func (m *MemoryFault) Error() string {
	return fmt.Sprintf("memory fault at cycle %d: %v", m.At, m.Fault)
}

// DeadlineReached is panicked when the simulation deadline set by the
// Runner expires; it cleanly unwinds whatever the firmware was doing.
type DeadlineReached struct{ At sim.Cycles }

func (d *DeadlineReached) Error() string {
	return fmt.Sprintf("simulation deadline reached at cycle %d", d.At)
}

// Halted is panicked when a debugger-side decision stops the run (e.g. a
// keep-alive assertion whose interactive session chooses not to resume).
type Halted struct {
	At     sim.Cycles
	Reason string
}

func (h *Halted) Error() string {
	return fmt.Sprintf("halted at cycle %d: %s", h.At, h.Reason)
}

// Monitor is a callback sampled periodically on simulated time — the hook
// EDB's passive mode and the oscilloscope probes use. Monitors run whether
// the target is on or off (EDB observes the device "whether it is on or
// off", §3.1).
type Monitor interface {
	Period() sim.Cycles
	Sample(now sim.Cycles)
}

type monitorSlot struct {
	m    Monitor
	next sim.Cycles
}

// PassiveProbe reports the net leakage current an attached tool draws from
// (positive) or feeds into (negative) the target's storage, as a function
// of the target's present line states. EDB's probe computes this from the
// Table-2 circuit models; a conventional tool's probe is far larger.
type PassiveProbe interface {
	LeakageCurrent() units.Amps
}

// Debugger is the interface the target-side libEDB library uses to reach an
// attached debugger. It is implemented by internal/edb. The methods
// correspond to signal transitions on the physical debug wires; keeping
// them as an interface lets the device package stay ignorant of EDB.
// Active-mode methods take the firmware Env because debugger actions
// (save, tether, restore) consume shared simulated time: the target spins
// on tethered power while EDB's hardware works.
type Debugger interface {
	// MarkerEdge delivers a code-marker GPIO pulse (watchpoint) encoded on
	// the marker lines.
	MarkerEdge(now sim.Cycles, id int)
	// DebugRequest is the target raising the target→debugger signal line
	// to open an active-mode exchange; kind discriminates the request.
	// The debugger saves the target's energy level and tethers it to
	// continuous power. It returns true if the debugger accepted.
	DebugRequest(env *Env, kind DebugRequestKind, arg uint16) bool
	// DebugDone is the target signalling the end of the active exchange;
	// the debugger restores the saved energy level and untethers.
	DebugDone(env *Env)
	// BreakpointEnabled reports whether the debugger has the given code
	// breakpoint enabled and its trigger condition (e.g. an energy
	// threshold for combined breakpoints) satisfied.
	BreakpointEnabled(id int) bool
	// EnterInteractive hands control to the debugger's interactive session
	// (console). The target sits in its debug service loop until the
	// session resumes it.
	EnterInteractive(env *Env, reason string)
}

// DebugRequestKind discriminates active-mode requests from the target.
type DebugRequestKind int

const (
	// ReqAssert is a failed keep-alive assertion.
	ReqAssert DebugRequestKind = iota
	// ReqBreakpoint is an enabled code breakpoint trap.
	ReqBreakpoint
	// ReqGuardBegin opens an energy-guarded region.
	ReqGuardBegin
	// ReqGuardEnd closes an energy-guarded region.
	ReqGuardEnd
	// ReqPrintf precedes an energy-interference-free printf payload.
	ReqPrintf
)

func (k DebugRequestKind) String() string {
	switch k {
	case ReqAssert:
		return "assert"
	case ReqBreakpoint:
		return "breakpoint"
	case ReqGuardBegin:
		return "guard-begin"
	case ReqGuardEnd:
		return "guard-end"
	case ReqPrintf:
		return "printf"
	}
	return "unknown"
}

// Config parameterizes a simulated device.
type Config struct {
	// ClockHz is the MCU clock (default 4 MHz, the WISP 5 configuration).
	ClockHz uint64
	// ActiveCurrent is the load while the MCU executes, before peripheral
	// adders. The WISP 5's MCU core draws ~0.5 mA at 4 MHz; regulator
	// overhead and FRAM activity bring the platform draw higher.
	ActiveCurrent units.Amps
	// SleepCurrent is the load in a low-power mode (LPM with timer
	// running), used by firmware that waits between samples.
	SleepCurrent units.Amps
	// Quantum is the energy-integration step in cycles.
	Quantum sim.Cycles
	// SleepQuantum, when non-zero, is a coarser energy-integration step
	// used while the MCU is in a low-power mode (env.Sleep). Sleep current
	// is near-constant, so integrating it at the active-mode quantum buys
	// no accuracy; fleet-scale runs set this to trade sub-quantum sleep
	// resolution for throughput. Zero keeps the active quantum everywhere
	// (the default, and the setting all golden results use).
	SleepQuantum sim.Cycles
	// DeferSupply batches sub-quantum supply integration: while no
	// monitors or probes are attached and the target is untethered,
	// advance() accrues elapsed cycles and integrates the store once a
	// full quantum has accumulated — or at the next load change, sleep
	// transition, or voltage observation — instead of once per env call.
	// Short bus and GPIO operations then stop paying a supply step each.
	// Brown-out surfaces at the accrual boundary, the same granularity
	// trade Quantum already makes. Off by default (the setting all golden
	// results use).
	DeferSupply bool
	// Seed seeds the device's RNG streams.
	Seed int64
}

// DefaultConfig returns WISP-5-like parameters.
func DefaultConfig() Config {
	return Config{
		ClockHz:       sim.DefaultClockHz,
		ActiveCurrent: units.MilliAmps(1.2),
		SleepCurrent:  units.MicroAmps(350),
		Quantum:       64,
		Seed:          1,
	}
}

// Device is the simulated target platform.
type Device struct {
	Clock  *sim.Clock
	Supply *energy.Supply
	Mem    *memsim.Memory
	SRAM   *memsim.Region
	FRAM   *memsim.Region
	GPIO   *GPIOPorts
	UART   *UART
	I2C    *I2CBus
	RF     *RFPort
	RNG    *sim.RNG

	cfg Config

	// dynamic load adders, by name (peripherals turn themselves on/off),
	// kept as a name-sorted slice: there are at most a handful, SetLoad
	// sits on the app's per-iteration path, and summing in sorted order
	// keeps the cached total independent of insertion order.
	loads   []loadEntry
	loadSum units.Amps

	// pendSupply is the deferred-integration accrual: cycles the clock has
	// advanced that the supply has not yet integrated (DeferSupply only).
	pendSupply sim.Cycles

	monitors []*monitorSlot
	// monitorsDue is the earliest next-sample cycle over monitors:
	// runMonitors skips its scan until the clock reaches it. Anything that
	// adds, removes or repositions a monitor resets it to 0.
	monitorsDue sim.Cycles
	probes      []PassiveProbe

	debugger Debugger

	// interrupt support (EDB's Interrupt wire, Fig. 5)
	interruptPending bool
	isr              func(env *Env)
	inISR            bool

	deadline    sim.Cycles
	hasDeadline bool
	lowPower    bool

	// fault holds the values memoryFault panics with: allocated at the
	// device's first memory fault and reused after, so a faulting access
	// allocates nothing and a device that never faults (a fleet tag)
	// carries one pointer for it.
	fault *deviceFault

	stats Stats
}

// Stats accumulates run statistics.
type Stats struct {
	Reboots       int
	Faults        int
	ActiveTime    units.Seconds
	ChargeTime    units.Seconds
	TetheredTime  units.Seconds
	UARTBytesSent uint64
}

// New returns a device with the given supply and configuration.
func New(cfg Config, supply *energy.Supply) *Device {
	if cfg.ClockHz == 0 {
		cfg.ClockHz = sim.DefaultClockHz
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 64
	}
	if cfg.ActiveCurrent == 0 {
		cfg.ActiveCurrent = DefaultConfig().ActiveCurrent
	}
	if cfg.SleepCurrent == 0 {
		cfg.SleepCurrent = DefaultConfig().SleepCurrent
	}
	mem, sram, fram := memsim.NewTargetMemory()
	d := &Device{
		Clock:  sim.NewClock(cfg.ClockHz),
		Supply: supply,
		Mem:    mem,
		SRAM:   sram,
		FRAM:   fram,
		RNG:    sim.NewRNG(cfg.Seed),
		cfg:    cfg,
	}
	d.GPIO = newGPIOPorts(d)
	d.UART = newUART(d)
	d.I2C = newI2CBus(d)
	d.RF = newRFPort(d)
	return d
}

// NewWISP5 returns a device configured like the paper's target: WISP 5
// supply (47 µF, 2.4 V / 1.8 V thresholds) powered by the given harvester.
// A reseedable harvester's stochastic stream is derived from seed, so
// distinct seeds see distinct RF channels.
func NewWISP5(h energy.Harvester, seed int64) *Device {
	cfg := DefaultConfig()
	cfg.Seed = seed
	if r, ok := h.(energy.Reseeder); ok {
		r.Reseed(seed)
	}
	return New(cfg, energy.WISP5Supply(h))
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a copy of the accumulated statistics.
func (d *Device) Stats() Stats { return d.stats }

// AttachDebugger connects a debugger implementation (EDB). Passing nil
// detaches.
func (d *Device) AttachDebugger(dbg Debugger) { d.debugger = dbg }

// Debugger returns the attached debugger, or nil.
func (d *Device) Debugger() Debugger { return d.debugger }

// AddProbe registers a passive probe whose leakage is integrated into the
// supply. It returns a remove function.
func (d *Device) AddProbe(p PassiveProbe) func() {
	d.probes = append(d.probes, p)
	return func() {
		for i, q := range d.probes {
			if q == p {
				d.probes = append(d.probes[:i], d.probes[i+1:]...)
				return
			}
		}
	}
}

// AddMonitor registers a periodic monitor. It returns a remove function.
func (d *Device) AddMonitor(m Monitor) func() {
	slot := &monitorSlot{m: m, next: d.Clock.Now()}
	d.monitors = append(d.monitors, slot)
	d.monitorsDue = 0
	return func() {
		for i, s := range d.monitors {
			if s == slot {
				d.monitors = append(d.monitors[:i], d.monitors[i+1:]...)
				d.monitorsDue = 0
				return
			}
		}
	}
}

// loadEntry is one named load adder; Device.loads stays sorted by name.
type loadEntry struct {
	name string
	amps units.Amps
}

// SetLoad registers (or updates) a named load adder; amps <= 0 removes it.
func (d *Device) SetLoad(name string, amps units.Amps) {
	d.flushSupply() // integrate accrued cycles under the old load

	i := sort.Search(len(d.loads), func(i int) bool { return d.loads[i].name >= name })
	switch {
	case i < len(d.loads) && d.loads[i].name == name:
		if amps <= 0 {
			d.loads = append(d.loads[:i], d.loads[i+1:]...)
		} else {
			d.loads[i].amps = amps
		}
	case amps > 0:
		d.loads = append(d.loads, loadEntry{})
		copy(d.loads[i+1:], d.loads[i:])
		d.loads[i] = loadEntry{name, amps}
	default:
		return // removing an absent load changes nothing
	}
	d.recalcLoadSum()
}

func (d *Device) recalcLoadSum() {
	var sum units.Amps
	for _, e := range d.loads {
		sum += e.amps
	}
	d.loadSum = sum
}

// VReg returns the regulated rail voltage — the Vreg line EDB senses
// (Fig. 5). The WISP's regulator produces ~2.0 V while the MCU operates
// (or is tethered); during a power failure the rail sags with the
// capacitor below the dropout point, which is exactly why EDB's level
// shifters need the tracking circuit of §4.1.2.
func (d *Device) VReg() units.Volts {
	const nominal = 2.0 // regulator setpoint
	const dropout = 0.15
	v := d.Supply.Voltage()
	if d.Supply.State() == energy.PowerOn || d.Supply.Tethered() {
		if float64(v) >= nominal+dropout {
			return nominal
		}
		sag := float64(v) - dropout
		if sag < 0 {
			sag = 0
		}
		return units.Volts(sag)
	}
	// Off: the rail follows the (sub-threshold) store through the
	// regulator's leakage path, well below its specified value.
	out := float64(v) - dropout
	if out < 0 {
		out = 0
	}
	return units.Volts(out)
}

// TotalLoad returns the present load current: MCU active (or sleep) current
// plus every peripheral adder.
func (d *Device) TotalLoad() units.Amps {
	if d.lowPower {
		return d.cfg.SleepCurrent + d.loadSum
	}
	return d.cfg.ActiveCurrent + d.loadSum
}

// probeLeakage sums attached tools' leakage (positive = drawn from target).
func (d *Device) probeLeakage() units.Amps {
	var sum units.Amps
	for _, p := range d.probes {
		sum += p.LeakageCurrent()
	}
	return sum
}

// SetDeadline arranges for device operations to panic with *DeadlineReached
// once the clock passes the given cycle.
func (d *Device) SetDeadline(at sim.Cycles) {
	d.deadline = at
	d.hasDeadline = true
}

// ClearDeadline removes the deadline.
func (d *Device) ClearDeadline() { d.hasDeadline = false }

// RaiseInterrupt asserts EDB's interrupt wire; the registered ISR runs at
// the next quantum boundary of active execution.
func (d *Device) RaiseInterrupt() { d.interruptPending = true }

// SetISR registers the interrupt service routine (libEDB's debug-service
// entry point).
func (d *Device) SetISR(isr func(env *Env)) { d.isr = isr }

// advance moves simulated time forward n cycles while the MCU runs,
// integrating energy in quanta, firing monitors and scheduled events, and
// panicking on brown-out, deadline, or (via the ISR) debugger interrupts.
func (d *Device) advance(n sim.Cycles, env *Env) {
	for n > 0 {
		q := d.cfg.Quantum
		if d.lowPower && d.cfg.SleepQuantum > q {
			q = d.cfg.SleepQuantum
		}
		step := q
		if step > n {
			step = n
		}
		n -= step
		d.Clock.Advance(step)

		if d.deferSupply() {
			d.pendSupply += step
			if d.pendSupply >= q {
				d.flushSupply()
			}
		} else {
			dt := d.Clock.ToSeconds(step)
			if d.Supply.Tethered() {
				d.stats.TetheredTime += dt
			} else {
				d.stats.ActiveTime += dt
				load := d.TotalLoad() + d.probeLeakage()
				if d.Supply.Step(load, dt) == energy.PowerOff {
					d.runMonitors()
					panic(&PowerFailure{At: d.Clock.Now(), V: d.Supply.Voltage()})
				}
			}
		}

		d.runMonitors()
		d.checkDeadline()

		if d.interruptPending && d.isr != nil && !d.inISR && env != nil {
			d.flushSupply() // the ISR observes the target's real state
			d.interruptPending = false
			d.inISR = true
			d.isr(env)
			d.inISR = false
		}
	}
}

// deferSupply reports whether supply integration may accrue across env
// calls: only when nothing samples the store between quanta.
func (d *Device) deferSupply() bool {
	return d.cfg.DeferSupply && len(d.monitors) == 0 && len(d.probes) == 0 &&
		!d.Supply.Tethered()
}

// flushSupply integrates any accrued cycles (DeferSupply). Callers that
// change the load or observe the store invoke it first; it is a no-op when
// nothing is pending.
func (d *Device) flushSupply() {
	p := d.pendSupply
	if p == 0 {
		return
	}
	d.pendSupply = 0
	dt := d.Clock.ToSeconds(p)
	d.stats.ActiveTime += dt
	load := d.TotalLoad() + d.probeLeakage()
	if d.Supply.Step(load, dt) == energy.PowerOff {
		d.runMonitors()
		panic(&PowerFailure{At: d.Clock.Now(), V: d.Supply.Voltage()})
	}
}

// IdleCharge advances time with the MCU off (no load but probe leakage)
// until either the supply turns on or maxTime elapses. It returns true if
// the device powered on.
func (d *Device) IdleCharge(maxTime units.Seconds) bool {
	powered, _ := d.IdleChargeUntil(d.Clock.Now()+d.Clock.ToCycles(maxTime), Never)
	return powered
}

// IdleChargeUntil is the resumable core of IdleCharge: it advances a
// charging phase whose deadline is the absolute cycle limit, pausing when
// the clock reaches stopAt (a time-slice boundary). It returns powered=true
// if the supply turned on, and exhausted=true if the charge window closed
// without power-on. (false, false) means the slice boundary interrupted the
// phase: calling again with the SAME limit resumes with an integration
// sequence identical to an unsliced run — limit, not stopAt, bounds the
// analytic charge jump, so slicing never changes where integration steps or
// jumps land (a jump may carry the clock past stopAt; callers tolerate the
// overshoot, which a sequential run would perform identically).
func (d *Device) IdleChargeUntil(limit, stopAt sim.Cycles) (powered, exhausted bool) {
	quantum := d.cfg.Quantum * 16 // coarser integration while off
	for d.Clock.Now() < limit {
		if d.Clock.Now() >= stopAt {
			return false, false
		}
		// With nothing observing the charge curve, jump straight to the
		// turn-on crossing when the supply has a closed form for it.
		if len(d.monitors) == 0 && len(d.probes) == 0 && d.chargeJump(limit) {
			return true, false
		}
		step := quantum
		d.Clock.Advance(step)
		dt := d.Clock.ToSeconds(step)
		d.stats.ChargeTime += dt
		// While off, only probe leakage loads the store (and it cannot
		// trigger a brown-out panic because nothing is executing).
		if d.Supply.Step(d.probeLeakage(), dt) == energy.PowerOn {
			d.runMonitors()
			return true, false
		}
		d.runMonitors()
		d.checkDeadline()
	}
	return false, true
}

// chargeJump fast-forwards a monitor- and probe-free charging phase straight
// to the turn-on crossing using the supply's closed-form RC solve. It
// declines (returns false) whenever a scheduled event, the run deadline, or
// the end of the charge window could land before the crossing — stepped
// integration then proceeds and observes whichever comes first.
func (d *Device) chargeJump(limit sim.Cycles) bool {
	now := d.Clock.Now()
	window := limit
	if d.hasDeadline && d.deadline < window {
		window = d.deadline
	}
	if at, ok := d.Clock.NextEventAt(); ok && at < window {
		window = at
	}
	if window <= now+1 {
		return false
	}
	dt, ok := d.Supply.ChargeJumpToOn(d.Clock.ToSeconds(window - now - 1))
	if !ok {
		return false
	}
	cycles := d.Clock.ToCycles(dt)
	if cycles > window-now-1 {
		cycles = window - now - 1
	}
	d.Clock.Advance(cycles)
	d.stats.ChargeTime += d.Clock.ToSeconds(cycles)
	return true
}

// AdvanceIdle advances simulated time with the MCU halted: monitors and
// scheduled events still run, the harvester charges the store (unless
// tethered), and nothing executes. Experiment drivers use it to keep
// observing a halted (keep-alive) target.
func (d *Device) AdvanceIdle(dt units.Seconds) {
	end := d.Clock.Now() + d.Clock.ToCycles(dt)
	quantum := d.cfg.Quantum * 16
	for d.Clock.Now() < end {
		d.Clock.Advance(quantum)
		step := d.Clock.ToSeconds(quantum)
		if !d.Supply.Tethered() {
			d.Supply.Step(d.probeLeakage(), step)
		}
		d.runMonitors()
	}
}

// runMonitors samples every monitor that has come due.
func (d *Device) runMonitors() {
	if d.Clock.Now() >= d.monitorsDue {
		d.sampleMonitors()
	}
}

func (d *Device) sampleMonitors() {
	now := d.Clock.Now()
	// A Sample that adds or removes a monitor resets monitorsDue to 0,
	// which the min below keeps, so the next call scans again.
	d.monitorsDue = ^sim.Cycles(0)
	due := ^sim.Cycles(0)
	for _, s := range d.monitors {
		for s.next <= now {
			s.m.Sample(s.next)
			p := s.m.Period()
			if p == 0 {
				p = 1
			}
			s.next += p
		}
		due = min(due, s.next)
	}
	d.monitorsDue = min(d.monitorsDue, due)
}

// deviceFault is the *MemoryFault a device panics with and the
// memsim.Fault it points to.
type deviceFault struct {
	panicked MemoryFault
	access   memsim.Fault
}

// memoryFault panics with the device's *MemoryFault for an illegal access
// at a. It overwrites the value the previous fault panicked with.
func (d *Device) memoryFault(a memsim.Addr, write bool) {
	f := d.fault
	if f == nil {
		f = new(deviceFault)
		d.fault = f
	}
	f.access = memsim.Fault{Addr: a, Write: write}
	f.panicked = MemoryFault{At: d.Clock.Now(), Fault: &f.access}
	panic(&f.panicked)
}

func (d *Device) checkDeadline() {
	if d.hasDeadline && d.Clock.Now() >= d.deadline {
		panic(&DeadlineReached{At: d.Clock.Now()})
	}
}

// Reboot models the effect of a power failure on the MCU: volatile memory
// and register state are lost; GPIO outputs reset; peripherals reset;
// non-volatile FRAM persists.
func (d *Device) Reboot() {
	d.Mem.ClearVolatile()
	d.GPIO.reset()
	d.UART.reset()
	d.I2C.reset()
	d.RF.reset()
	d.loads = d.loads[:0] // kept: the next boot sets its loads again
	d.loadSum = 0
	d.pendSupply = 0
	d.interruptPending = false
	d.lowPower = false
	d.stats.Reboots++
}
