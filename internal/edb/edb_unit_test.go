package edb_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/units"
)

func poweredRig(t *testing.T, seed int64) (*device.Device, *edb.EDB) {
	t.Helper()
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(1), Voc: 3.3}, seed)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	d.Supply.Cap.SetVoltage(2.4)
	d.Supply.Step(0, 0)
	return d, e
}

// quietRig has no harvest, so the capacitor stays where EDB's commands
// leave it.
func quietRig(t *testing.T, seed int64) (*device.Device, *edb.EDB) {
	t.Helper()
	d := device.NewWISP5(energy.NullHarvester{}, seed)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	d.Supply.Cap.SetVoltage(2.4)
	d.Supply.Step(0, 0)
	return d, e
}

func TestChargeCommandConverges(t *testing.T) {
	d, e := quietRig(t, 1)
	d.Supply.Cap.SetVoltage(1.9)
	e.CommandCharge(2.3)
	// The sampler actuates as time passes.
	d.AdvanceIdle(units.MilliSeconds(50))
	if e.PendingCommand() {
		t.Fatal("charge command did not complete")
	}
	v := float64(d.Supply.Voltage())
	if v < 2.29 || v > 2.42 {
		t.Fatalf("charged to %v", v)
	}
	if e.Events().Count("charge-done") != 1 {
		t.Fatal("completion event missing")
	}
}

func TestDischargeCommandConverges(t *testing.T) {
	d, e := quietRig(t, 2)
	d.Supply.Cap.SetVoltage(2.4)
	e.CommandDischarge(2.0)
	d.AdvanceIdle(units.MilliSeconds(200))
	if e.PendingCommand() {
		t.Fatal("discharge command did not complete")
	}
	v := float64(d.Supply.Voltage())
	if v < 1.93 || v > 2.01 {
		t.Fatalf("discharged to %v", v)
	}
}

func TestEnergyBreakpointFiresOnThresholdCrossing(t *testing.T) {
	// Full loop: busy app discharges; the energy breakpoint interrupts at
	// 2.2 V; the ISR opens a session; the handler records the voltage.
	h := &energy.ConstantHarvester{I: units.MicroAmps(150), Voc: 3.3}
	d := device.NewWISP5(h, 3)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	app := &apps.Busy{}
	r := device.NewRunner(d, app)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	e.AddEnergyBreakpoint(2.2)
	var seen []float64
	e.OnInteractive(func(s *edb.Session) {
		seen = append(seen, s.Voltage())
	})
	if _, err := r.RunFor(units.Seconds(2)); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("energy breakpoint never fired")
	}
	// First trigger voltage is near the threshold — the session opens
	// while the capacitor is being tethered upward, so allow the window
	// between threshold and rail-charging onset.
	if seen[0] < 2.05 || seen[0] > 2.45 {
		t.Fatalf("triggered at %v, want near 2.2", seen[0])
	}
	// Re-arms after recovery: multiple discharge cycles → multiple hits.
	if len(seen) < 2 {
		t.Fatalf("breakpoint must re-arm: %d hits", len(seen))
	}
}

func TestEnergyBreakpointDisabled(t *testing.T) {
	h := &energy.ConstantHarvester{I: units.MicroAmps(150), Voc: 3.3}
	d := device.NewWISP5(h, 4)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	app := &apps.Busy{}
	r := device.NewRunner(d, app)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	bp := e.AddEnergyBreakpoint(2.2)
	bp.Enabled = false
	fired := false
	e.OnInteractive(func(s *edb.Session) { fired = true })
	if _, err := r.RunFor(units.Seconds(1)); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("disabled breakpoint fired")
	}
}

func TestForceIdleRestoresSavedLevel(t *testing.T) {
	d, e := poweredRig(t, 5)
	env := &device.Env{D: d}
	v0 := d.Supply.Voltage()
	if !e.DebugRequest(env, device.ReqGuardBegin, 0) {
		t.Fatal("request refused")
	}
	env.Compute(100000) // tethered: capacitor pumps toward the rail
	if !e.Active() || !d.Supply.Tethered() {
		t.Fatal("must be in active mode")
	}
	e.ForceIdle()
	if e.Active() || d.Supply.Tethered() {
		t.Fatal("ForceIdle must close active mode")
	}
	dv := math.Abs(float64(d.Supply.Voltage() - v0))
	if dv > 0.01 {
		t.Fatalf("ForceIdle restore error = %v", dv)
	}
}

func TestLeakageCurrentSubMicroamp(t *testing.T) {
	d, e := poweredRig(t, 6)
	leak := float64(e.LeakageCurrent())
	if leak <= 0 || leak >= 1e-6 {
		t.Fatalf("attached leakage = %v A", leak)
	}
	_ = d
}

func TestLeakageRespondsToLineState(t *testing.T) {
	d, e := poweredRig(t, 7)
	base := float64(e.LeakageCurrent())
	// Raising the debug-signal line puts its buffer in the (leakier)
	// high state.
	env := &device.Env{D: d}
	env.SetPin(device.LineDebugSignal, true)
	raised := float64(e.LeakageCurrent())
	if raised <= base {
		t.Fatalf("high line must leak more: %v vs %v", raised, base)
	}
}

func TestVcapTraceLifecycle(t *testing.T) {
	d, e := poweredRig(t, 8)
	s := e.TraceVcap()
	d.AdvanceIdle(units.MilliSeconds(5))
	if s.Len() == 0 {
		t.Fatal("trace must accumulate")
	}
	if e.VcapSeries() != s {
		t.Fatal("series accessor")
	}
	n := s.Len()
	e.StopTraceVcap()
	d.AdvanceIdle(units.MilliSeconds(5))
	if s.Len() != n {
		t.Fatal("stopped trace must not grow")
	}
	if e.VcapSeries() != nil {
		t.Fatal("stopped accessor must be nil")
	}
}

func TestRFDecoderLabelsEvents(t *testing.T) {
	d, e := poweredRig(t, 9)
	e.SetRFDecoder(func(bits []byte) string { return "LABEL" })
	d.RF.Deliver(device.RFFrame{Bits: []byte{1}})
	d.RF.Deliver(device.RFFrame{Bits: []byte{2}, Corrupted: true})
	evs := e.Events().Filter("rfid-rx")
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Text != "LABEL" {
		t.Fatalf("label = %q", evs[0].Text)
	}
	if !strings.Contains(evs[1].Text, "corrupt") {
		t.Fatalf("corrupt label = %q", evs[1].Text)
	}
}

func TestDetachStopsEverything(t *testing.T) {
	d, e := poweredRig(t, 10)
	e.TraceVcap()
	s := e.VcapSeries()
	e.Detach()
	if e.Target() != nil {
		t.Fatal("target must clear")
	}
	d.AdvanceIdle(units.MilliSeconds(5))
	if s.Len() != 0 {
		t.Fatal("detached sampler must not run")
	}
	if d.Debugger() != nil {
		t.Fatal("device must forget the debugger")
	}
}

func TestSaveRestoreSampleRecords(t *testing.T) {
	d, e := poweredRig(t, 11)
	env := &device.Env{D: d}
	e.DebugRequest(env, device.ReqPrintf, 0)
	env.Compute(10000)
	e.DebugDone(env)
	srs := e.SaveRestoreSamples()
	if len(srs) != 1 {
		t.Fatalf("samples = %d", len(srs))
	}
	sr := srs[0]
	if sr.SavedTrue < 2.3 || sr.SavedTrue > 2.5 {
		t.Fatalf("saved = %v", sr.SavedTrue)
	}
	// Fine restore: |ΔV| within a few mV.
	if dv := math.Abs(float64(sr.RestoredTrue - sr.SavedTrue)); dv > 0.008 {
		t.Fatalf("fine restore dv = %v", dv)
	}
}

func TestWatchHitsAccumulate(t *testing.T) {
	d, e := poweredRig(t, 12)
	e.MarkerEdge(d.Clock.Now(), 1)
	e.MarkerEdge(d.Clock.Now(), 2)
	if len(e.WatchHits()) != 2 {
		t.Fatalf("hits = %d", len(e.WatchHits()))
	}
	if e.Events().Count("watchpoint") != 2 {
		t.Fatal("events")
	}
}

func TestConsoleSinkReceivesNotifications(t *testing.T) {
	d, e := poweredRig(t, 13)
	var lines []string
	e.SetConsoleSink(func(s string) { lines = append(lines, s) })
	// An assert announcement routes through the sink.
	env := &device.Env{D: d}
	e.DebugRequest(env, device.ReqAssert, 5)
	env.UARTWrite(assertFrame(5))
	e.DebugDone(env)
	found := false
	for _, l := range lines {
		if strings.Contains(l, "assertion 5") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sink lines = %q", lines)
	}
}

// assertFrame builds the target's RspAssert announcement.
func assertFrame(id uint16) []byte {
	return []byte{0xED, 0x84, 0x02, byte(id), byte(id >> 8), byte(0x84 + 0x02 + byte(id) + byte(id>>8))}
}

func TestVregTraceLifecycle(t *testing.T) {
	d, e := poweredRig(t, 14)
	s := e.TraceVreg()
	d.AdvanceIdle(units.MilliSeconds(5))
	if s.Len() == 0 {
		t.Fatal("vreg trace must accumulate")
	}
	if e.VregSeries() != s {
		t.Fatal("series accessor")
	}
	// The regulated rail reads at/below the 2.0 V setpoint.
	if s.Max() > 2.05 {
		t.Fatalf("vreg max = %v", s.Max())
	}
	e.StopTraceVreg()
	n := s.Len()
	d.AdvanceIdle(units.MilliSeconds(5))
	if s.Len() != n {
		t.Fatal("stopped vreg trace must not grow")
	}
}

// TestOnChipVariantTradeoff quantifies §4.3's on-chip option: no wire
// leakage at all, but every passive sample draws from the shared store.
// The trade: the on-chip draw exceeds the external board's wire leakage,
// yet stays orders of magnitude under one percent of the target's active
// power budget — the design remains energy-interference-free either way.
func TestOnChipVariantTradeoff(t *testing.T) {
	drain := func(onChip bool) float64 {
		d := device.NewWISP5(energy.NullHarvester{}, 21)
		cfg := edb.DefaultConfig()
		cfg.OnChip = onChip
		e := edb.New(cfg)
		e.Attach(d)
		if onChip && e.LeakageCurrent() != 0 {
			t.Fatal("on-chip variant must have zero wire leakage")
		}
		d.Supply.Cap.SetVoltage(2.4)
		v0 := float64(d.Supply.Cap.Energy())
		d.AdvanceIdle(units.Seconds(1))
		return v0 - float64(d.Supply.Cap.Energy())
	}
	external := drain(false)
	onChip := drain(true)
	if external <= 0 || onChip <= 0 {
		t.Fatalf("both variants must draw something: ext=%v chip=%v", external, onChip)
	}
	// External: the sub-µA wire-leakage class (< 1 µA · 2.4 V · 1 s).
	if external > 2.4e-6 {
		t.Fatalf("external interference = %v J/s", external)
	}
	// On-chip: pays for sampling instead of leakage...
	if onChip <= external {
		t.Fatalf("on-chip must trade leakage for sampling cost: %v vs %v", onChip, external)
	}
	// ...but stays far below 1 %% of the active power (~2.9 mW).
	if onChip > 0.01*1.2e-3*2.4 {
		t.Fatalf("on-chip draw = %v J/s exceeds 1%% of the active budget", onChip)
	}
}

// The leakage cache, keyed on the debugger-wire version, must always equal
// a fresh walk of the Table-2 chain: application-pin edges no longer
// invalidate it, so they must not be able to change it either.
func TestLeakageCacheMatchesFreshModel(t *testing.T) {
	d, e := poweredRig(t, 31)
	env := &device.Env{D: d}
	lines := []string{device.LineAppPin, device.LineCodeMarker0, device.LineAppPin,
		device.LineDebugSignal, device.LineLED, device.LineCodeMarker1, device.LineInterrupt, device.LineAppPin}
	for i := 0; i < 64; i++ {
		env.TogglePin(lines[i%len(lines)])
		cached := e.LeakageCurrent()
		fresh := edb.New(edb.DefaultConfig())
		fresh.Attach(d)
		want := fresh.LeakageCurrent()
		fresh.Detach()
		d.AttachDebugger(e)
		if math.Float64bits(float64(cached)) != math.Float64bits(float64(want)) {
			t.Fatalf("toggle %d (%s): cached leakage %v, fresh %v", i, lines[i%len(lines)], cached, want)
		}
	}
}
