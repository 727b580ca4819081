// Package edb implements the Energy-interference-free Debugger — the
// paper's contribution. EDB attaches to a simulated energy-harvesting
// target and provides:
//
//   - Passive mode (§3.1): concurrent, energy-interference-free tracing of
//     the target's energy level (through a high-impedance sense path and
//     EDB's own 12-bit ADC), program events (code-marker watchpoints), and
//     I/O (UART, I2C, RFID) — whether the target is on or off.
//   - Active mode (§3.2): manipulation of the target's stored energy. EDB
//     saves the energy level, tethers the target to continuous power for
//     the duration of an active task, then restores the saved level, giving
//     the program the illusion of an unaltered intermittent execution.
//   - Debugging primitives (§3.3): code/energy/combined breakpoints,
//     keep-alive assertions, energy guards, energy-interference-free
//     printf, and interactive sessions with full access to target memory.
//
// The only electrical contact between EDB and the target is through the
// circuit models of internal/circuit, so attaching EDB perturbs the
// target's supply by exactly the worst-case sub-microamp leakage that
// Table 2 of the paper characterizes.
package edb

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/debugwire"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Config parameterizes an EDB board.
type Config struct {
	// SamplePeriod is the passive-mode ADC sampling interval.
	SamplePeriod units.Seconds
	// TetherCurrent is the charge current the tethered supply pushes into
	// the target's capacitor while active mode holds the rail up.
	TetherCurrent units.Amps
	// TetherRail is the tethered supply voltage.
	TetherRail units.Volts
	// RestoreMargin is the guard band the restore loop leaves above the
	// saved level after a breakpoint-style session, so the resumed target
	// is never pushed below the level it was saved at (undershooting risks
	// an immediate brown-out). Table 3 quantifies the resulting
	// discrepancy (~54 mV on the prototype).
	RestoreMargin units.Volts
	// FineRestoreMargin is the tighter margin used for short active tasks
	// (printf, energy guards), where the restore loop converges near the
	// ADC's resolution limit (the paper's Table 4 measures an EDB printf
	// at ~0.11 % of the store).
	FineRestoreMargin units.Volts
	// HandshakeLatency is the target-side latency of opening an active
	// exchange before the tether engages (signal edge, EDB ISR, save).
	HandshakeLatency units.Seconds
	// OnChip models the §4.3 variant: "our core design is also compatible
	// with an implementation as an on-chip component within the target
	// device architecture." On chip there are no board-to-board wires, so
	// the Table-2 leakage disappears — but the sampling ADC shares the
	// die and draws SampleCost from the target's store at every passive
	// sample. The external/on-chip trade is quantified in tests.
	OnChip bool
	// SampleCost is the on-chip variant's per-sample energy draw.
	SampleCost units.Joules
	// Seed seeds EDB's RNG streams (ADC noise, component variation).
	Seed int64
}

// DefaultConfig returns prototype-like parameters.
func DefaultConfig() Config {
	return Config{
		SamplePeriod:      units.MicroSeconds(100),
		TetherCurrent:     units.MilliAmps(5),
		TetherRail:        3.0,
		RestoreMargin:     units.MilliVolts(52),
		FineRestoreMargin: units.MilliVolts(1.5),
		HandshakeLatency:  units.MicroSeconds(60),
		SampleCost:        units.NanoJoules(1), // comparator-assisted on-chip sample
		Seed:              7,
	}
}

// WatchpointHit records one code-marker event with the energy snapshot EDB
// takes when the marker edge arrives.
type WatchpointHit struct {
	At sim.Cycles
	ID int
	V  units.Volts
}

// ActiveStats counts active-mode operations.
type ActiveStats struct {
	Sessions     int
	Printfs      int
	Guards       int
	SaveRestores int
	Asserts      int
	BreakHits    int
}

// SaveRestoreSample records one energy save/restore pair, the measurement
// underlying Table 3.
type SaveRestoreSample struct {
	// SavedTrue / RestoredTrue are ground-truth capacitor voltages (what
	// the paper's oscilloscope saw).
	SavedTrue, RestoredTrue units.Volts
	// SavedADC / RestoredADC are EDB's own ADC readings.
	SavedADC, RestoredADC units.Volts
}

// EDB is one debugger board attached to one target.
type EDB struct {
	cfg    Config
	target *device.Device

	adc  *circuit.ADC
	cd   *circuit.ChargeDischarge
	conn []*circuit.Instance
	rng  *sim.RNG

	// Passive-mode state.
	samplePeriod sim.Cycles
	lastReading  units.Volts
	vcapTrace    *trace.Series
	vregTrace    *trace.Series
	events       *trace.Log
	watchHits    []WatchpointHit
	watchEnabled map[int]bool
	rfDecoder    func([]byte) string
	gpioKinds    map[string]string // line name → "gpio:<line>" event kind
	consoleSink  func(string)
	printfBuf    strings.Builder

	// Breakpoints.
	breaks       map[int]*Breakpoint
	energyBreaks []*EnergyBreakpoint

	// Active mode.
	activeDepth          int
	savedReadings        []units.Volts // stack of saved ADC readings (codes EDB restores to)
	savedTrue            []units.Volts // ground truth at save instant (scope view)
	onInteractive        func(*Session)
	service              func(env *device.Env) bool
	acc                  debugwire.Accumulator
	respQueue            []debugwire.Frame
	inExchange           bool
	pendingCoarseRestore bool
	restoring            bool // control loop owns the charge path

	// Async console commands executed by the sampler.
	pendingCharge    units.Volts // 0 = none
	pendingDischarge units.Volts

	// Console snap/restore slot (snapshot.go).
	snapSlot *stateSlot

	stats        ActiveStats
	saveRestores []SaveRestoreSample

	// Cached leakage linearization: total connection leakage is
	// leakBase + leakSlope·(v/VCharacterize), a pure function of the line
	// states, recomputed only when the target's GPIO version moves (see
	// LeakageCurrent).
	leakValid   bool
	leakVersion uint64
	leakBase    float64
	leakSlope   float64

	detach []func()
}

// New builds an EDB board (not yet attached). Zero-valued config fields
// take their defaults individually, so setting only (say) Seed or
// RestoreMargin does not discard the rest of DefaultConfig.
func New(cfg Config) *EDB {
	def := DefaultConfig()
	if cfg.SamplePeriod == 0 {
		cfg.SamplePeriod = def.SamplePeriod
	}
	if cfg.TetherCurrent == 0 {
		cfg.TetherCurrent = def.TetherCurrent
	}
	if cfg.TetherRail == 0 {
		cfg.TetherRail = def.TetherRail
	}
	if cfg.RestoreMargin == 0 {
		cfg.RestoreMargin = def.RestoreMargin
	}
	if cfg.FineRestoreMargin == 0 {
		cfg.FineRestoreMargin = def.FineRestoreMargin
	}
	if cfg.HandshakeLatency == 0 {
		cfg.HandshakeLatency = def.HandshakeLatency
	}
	if cfg.SampleCost == 0 {
		cfg.SampleCost = def.SampleCost
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	rng := sim.NewRNG(cfg.Seed)
	events := trace.NewLog("edb")
	// Bound the retained event stream: long passive sessions generate
	// millions of GPIO/I/O events; the newest million is plenty for any
	// console view while keeping memory flat.
	events.Limit = 1 << 20
	e := &EDB{
		cfg:          cfg,
		adc:          circuit.NewADC(rng.Split("adc")),
		cd:           circuit.NewChargeDischarge(),
		rng:          rng,
		events:       events,
		watchEnabled: make(map[int]bool),
		gpioKinds:    make(map[string]string),
		breaks:       make(map[int]*Breakpoint),
	}
	for _, c := range circuit.EDBConnections() {
		e.conn = append(e.conn, c.Instantiate(rng.Split("conn:"+c.Name)))
	}
	return e
}

// Attach wires EDB to the target: the sense/manipulate connections, the
// passive probe leakage, the periodic ADC sampler, and the I/O monitors.
func (e *EDB) Attach(t *device.Device) {
	e.target = t
	e.leakValid = false
	e.samplePeriod = t.Clock.ToCycles(e.cfg.SamplePeriod)
	if e.samplePeriod == 0 {
		e.samplePeriod = 1
	}
	t.AttachDebugger(e)
	e.detach = append(e.detach, t.AddProbe(e))
	e.detach = append(e.detach, t.AddMonitor(&sampler{e: e}))
	e.detach = append(e.detach, t.UART.Subscribe(e.onUARTByte))
	e.detach = append(e.detach, t.I2C.Subscribe(e.onI2C))
	e.detach = append(e.detach, t.RF.SubscribeRx(e.onRFRx))
	e.detach = append(e.detach, t.RF.SubscribeTx(e.onRFTx))
	e.detach = append(e.detach, t.GPIO.Subscribe(e.onGPIO))
	e.lastReading = e.adc.Read(t.Supply.Voltage())
}

// Detach removes EDB from the target.
func (e *EDB) Detach() {
	for _, f := range e.detach {
		f()
	}
	e.detach = nil
	if e.target != nil {
		e.target.AttachDebugger(nil)
		e.target = nil
	}
}

// Target returns the attached device (nil if detached).
func (e *EDB) Target() *device.Device { return e.target }

// ADC returns EDB's analog-to-digital converter.
func (e *EDB) ADC() *circuit.ADC { return e.adc }

// Events returns EDB's event log (watchpoints, asserts, I/O, sessions).
func (e *EDB) Events() *trace.Log { return e.events }

// Stats returns active-mode operation counts.
func (e *EDB) Stats() ActiveStats { return e.stats }

// SaveRestoreSamples returns the recorded save/restore accuracy samples.
func (e *EDB) SaveRestoreSamples() []SaveRestoreSample { return e.saveRestores }

// LastReading returns EDB's most recent Vcap ADC reading.
func (e *EDB) LastReading() units.Volts { return e.lastReading }

// Active reports whether an active-mode exchange is open.
func (e *EDB) Active() bool { return e.activeDepth > 0 }

// ForceIdle aborts any open active-mode exchange: saved energy levels are
// applied directly and the tether drops. Experiment drivers use it when a
// simulation deadline cuts a run mid-session; it corresponds to the
// operator resetting the debugger.
func (e *EDB) ForceIdle() {
	if e.target != nil && len(e.savedReadings) > 0 {
		// The oldest save is the pre-session level; snap back to it.
		e.target.Supply.Cap.SetVoltage(e.savedReadings[0])
	}
	e.savedReadings = e.savedReadings[:0]
	e.savedTrue = e.savedTrue[:0]
	e.activeDepth = 0
	e.inExchange = false
	e.restoring = false
	e.pendingCoarseRestore = false
	if e.target != nil {
		e.target.Supply.SetTethered(false)
	}
}

// SetConsoleSink routes printf output and console notifications to fn.
func (e *EDB) SetConsoleSink(fn func(string)) { e.consoleSink = fn }

// PrintfOutput returns everything EDB printf has delivered so far.
func (e *EDB) PrintfOutput() string { return e.printfBuf.String() }

// SetRFDecoder installs a frame classifier used to label monitored RFID
// messages (the rfid package provides one).
func (e *EDB) SetRFDecoder(fn func([]byte) string) { e.rfDecoder = fn }

// OnInteractive installs the interactive-session handler invoked when a
// breakpoint hits or an assertion fails. Without a handler, EDB keeps the
// target tethered (keep-alive) and halts the run.
func (e *EDB) OnInteractive(fn func(*Session)) { e.onInteractive = fn }

// SetTargetService registers the target-side debug service step; libEDB
// installs it at Init. The function processes at most one pending command
// frame and reports whether the session should continue.
func (e *EDB) SetTargetService(fn func(env *device.Env) bool) { e.service = fn }

// TraceVcap enables capacitor-voltage tracing into a new series (replacing
// any previous one) and returns it.
func (e *EDB) TraceVcap() *trace.Series {
	e.vcapTrace = trace.NewSeries("Vcap", "V")
	return e.vcapTrace
}

// StopTraceVcap disables voltage tracing.
func (e *EDB) StopTraceVcap() { e.vcapTrace = nil }

// VcapSeries returns the active voltage trace (nil when tracing is off).
func (e *EDB) VcapSeries() *trace.Series { return e.vcapTrace }

// TraceVreg enables regulated-rail tracing — the second analog sense line
// of Fig. 5 — into a new series and returns it.
func (e *EDB) TraceVreg() *trace.Series {
	e.vregTrace = trace.NewSeries("Vreg", "V")
	return e.vregTrace
}

// StopTraceVreg disables regulated-rail tracing.
func (e *EDB) StopTraceVreg() { e.vregTrace = nil }

// VregSeries returns the active Vreg trace (nil when tracing is off).
func (e *EDB) VregSeries() *trace.Series { return e.vregTrace }

// WatchHits returns recorded watchpoint events with energy snapshots.
func (e *EDB) WatchHits() []WatchpointHit { return e.watchHits }

// EnableWatchpoint turns a watchpoint id on or off; only enabled
// watchpoints are recorded (matching the console's `watch en|dis id`).
func (e *EDB) EnableWatchpoint(id int, on bool) { e.watchEnabled[id] = on }

// LeakageCurrent implements device.PassiveProbe: the net current EDB's
// attached connections draw from the target, given present line states.
// This is the entire electrical footprint of passive-mode monitoring. The
// on-chip variant has no wires and therefore no leakage (its footprint is
// the per-sample draw instead).
func (e *EDB) LeakageCurrent() units.Amps {
	if e.target == nil || e.cfg.OnChip {
		return 0
	}
	// This runs every energy quantum. The per-connection leakage is linear
	// in the target voltage (circuit.Instance.TypicalCoeffs), and the line
	// states lineState reads only change on debugger-wire edges — so fold
	// the whole Table-2 chain walk into two coefficients keyed on the GPIO
	// version counter, which moves exactly on those edges.
	if v := e.target.GPIO.Version(); !e.leakValid || v != e.leakVersion {
		e.leakBase, e.leakSlope = 0, 0
		for _, inst := range e.conn {
			base, slope := inst.TypicalCoeffs(e.lineState(inst.Conn))
			n := float64(inst.Conn.Count)
			e.leakBase += n * float64(base)
			e.leakSlope += n * float64(slope)
		}
		e.leakVersion = v
		e.leakValid = true
	}
	scale := float64(e.target.Supply.Voltage()) / float64(circuit.VCharacterize)
	return units.Amps(e.leakBase + e.leakSlope*scale)
}

// lineState maps a connection to the present logic state of the line(s) it
// carries.
func (e *EDB) lineState(c *circuit.Connection) circuit.LogicState {
	g := e.target.GPIO
	switch c.Name {
	case "Code marker":
		if g.Level(device.LineCodeMarker0) || g.Level(device.LineCodeMarker1) {
			return circuit.High
		}
	case "Target->Debugger comm.":
		if g.Level(device.LineDebugSignal) {
			return circuit.High
		}
	case "Debugger->Target comm.":
		if g.Level(device.LineInterrupt) {
			return circuit.High
		}
	case "I2C SCL", "I2C SDA":
		return circuit.High // idle-high open-drain bus
	}
	// UART and RF lines idle high (UART idle is mark).
	switch c.Name {
	case "UART RX", "UART TX", "RF RX", "RF TX":
		return circuit.High
	}
	return circuit.Low
}

// sampler is EDB's periodic ADC sampling task.
type sampler struct{ e *EDB }

func (s *sampler) Period() sim.Cycles { return s.e.samplePeriod }

func (s *sampler) Sample(now sim.Cycles) {
	e := s.e
	if e.target == nil {
		return
	}
	sup := e.target.Supply
	// While tethered, EDB's supply charges the storage capacitor toward
	// the rail through the charge path (visible in the paper's Fig. 7/9
	// traces as Vcap rising to the tethered level). During restoration the
	// control loop owns the charge path, so the pump is off.
	if sup.Tethered() && !e.restoring {
		v := sup.Cap.Voltage()
		if v < e.cfg.TetherRail {
			sup.Cap.ApplyCurrent(e.cfg.TetherCurrent, e.cfg.SamplePeriod)
			if sup.Cap.Voltage() > e.cfg.TetherRail {
				sup.Cap.SetVoltage(e.cfg.TetherRail)
			}
		}
	}

	if e.cfg.OnChip && !sup.Tethered() {
		// The on-chip ADC samples out of the shared store.
		sup.Cap.DrainEnergy(e.cfg.SampleCost)
	}
	reading := e.adc.Read(sup.Voltage())
	e.lastReading = reading
	if e.vcapTrace != nil {
		e.vcapTrace.Add(now, float64(sup.Voltage()))
	}
	if e.vregTrace != nil {
		e.vregTrace.Add(now, float64(e.target.VReg()))
	}

	e.runConsoleCommands(reading)
	e.checkEnergyBreakpoints(reading)
}

// runConsoleCommands services pending charge/discharge console commands
// (§4.2: "EDB can emulate intermittence at the granularity of individual
// charge-discharge cycles using the charge/discharge commands").
func (e *EDB) runConsoleCommands(reading units.Volts) {
	sup := e.target.Supply
	if e.pendingCharge > 0 {
		if reading >= e.pendingCharge {
			e.pendingCharge = 0
			e.events.Add(trace.Event{At: e.target.Clock.Now(), Kind: "charge-done",
				Text: fmt.Sprintf("%.3f", float64(reading))})
		} else {
			sup.Cap.SetVoltage(e.cd.ChargePulse(sup.Cap.Voltage(), sup.Cap.C))
		}
	}
	if e.pendingDischarge > 0 {
		if reading <= e.pendingDischarge {
			e.pendingDischarge = 0
			e.events.Add(trace.Event{At: e.target.Clock.Now(), Kind: "discharge-done",
				Text: fmt.Sprintf("%.3f", float64(reading))})
		} else {
			sup.Cap.SetVoltage(e.cd.DischargePulse(sup.Cap.Voltage(), sup.Cap.C))
		}
	}
}

// CommandCharge asks the sampler to pump the target's capacitor up to v.
func (e *EDB) CommandCharge(v units.Volts) { e.pendingCharge = v }

// CommandDischarge asks the sampler to bleed the capacitor down to v.
func (e *EDB) CommandDischarge(v units.Volts) { e.pendingDischarge = v }

// PendingCommand reports whether a charge/discharge command is in flight.
func (e *EDB) PendingCommand() bool {
	return e.pendingCharge > 0 || e.pendingDischarge > 0
}

// I/O monitoring callbacks (§4.1.2): EDB decodes communication externally,
// so messages are observable even when the target browns out mid-exchange.

func (e *EDB) onUARTByte(at sim.Cycles, b byte) {
	if e.inExchange {
		// Bytes inside an active exchange are protocol frames.
		e.acc.Feed(b)
		e.drainFrames()
		return
	}
	// Application UART traffic: log bytes for the I/O trace.
	e.events.Add(trace.Event{At: at, Kind: "uart", Arg: int(b)})
}

func (e *EDB) onI2C(t device.I2CTransfer) {
	e.events.Add(trace.Event{At: t.At, Kind: "i2c", Arg: int(t.Addr), Text: t.String()})
}

func (e *EDB) onRFRx(f device.RFFrame) {
	name := "frame"
	if e.rfDecoder != nil {
		name = e.rfDecoder(f.Bits)
	}
	if f.Corrupted {
		name += " (corrupt)"
	}
	e.events.Add(trace.Event{At: f.At, Kind: "rfid-rx", Text: name})
}

func (e *EDB) onRFTx(f device.RFFrame) {
	name := "frame"
	if e.rfDecoder != nil {
		name = e.rfDecoder(f.Bits)
	}
	e.events.Add(trace.Event{At: f.At, Kind: "rfid-tx", Text: name})
}

func (e *EDB) onGPIO(edge device.GPIOEdge) {
	// Code-marker and debug-signal lines are handled by their dedicated
	// paths; record application pins for the I/O trace.
	switch edge.Line {
	case device.LineCodeMarker0, device.LineCodeMarker1, device.LineDebugSignal, device.LineInterrupt:
		return
	}
	arg := 0
	if edge.Level {
		arg = 1
	}
	kind, ok := e.gpioKinds[edge.Line]
	if !ok {
		kind = "gpio:" + edge.Line
		e.gpioKinds[edge.Line] = kind
	}
	e.events.Add(trace.Event{At: edge.At, Kind: kind, Arg: arg})
}

// MarkerEdge implements device.Debugger: decode a watchpoint id from the
// code-marker lines and snapshot the energy level (§4.1.3).
func (e *EDB) MarkerEdge(now sim.Cycles, id int) {
	if on, known := e.watchEnabled[id]; known && !on {
		return
	}
	v := e.adc.Read(e.target.Supply.Voltage())
	e.watchHits = append(e.watchHits, WatchpointHit{At: now, ID: id, V: v})
	e.events.Add(trace.Event{At: now, Kind: "watchpoint", Arg: id,
		Text: fmt.Sprintf("%.4f", float64(v))})
}
