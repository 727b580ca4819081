package device

import (
	"errors"
	"testing"

	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// testProg adapts closures to the Program interface.
type testProg struct {
	name  string
	flash func(*Device) error
	main  func(*Env)
}

func (p *testProg) Name() string { return p.name }
func (p *testProg) Flash(d *Device) error {
	if p.flash == nil {
		return nil
	}
	return p.flash(d)
}
func (p *testProg) Main(env *Env) { p.main(env) }

func constDevice(seed int64, i units.Amps) *Device {
	return NewWISP5(&energy.ConstantHarvester{I: i, Voc: 3.3}, seed)
}

// powerOn latches the supply into the operating state, as the Runner's
// charging phase would, so tests can drive Env directly.
func powerOn(d *Device) {
	d.Supply.Cap.SetVoltage(2.4)
	d.Supply.Step(0, 0)
}

func TestIntermittentRebootSemantics(t *testing.T) {
	d := constDevice(1, units.MilliAmps(0.5))
	var nvAddr, vAddr memsim.Addr
	bootVolatile := []uint16{}
	prog := &testProg{
		name: "sem",
		flash: func(d *Device) error {
			var err error
			if nvAddr, err = d.FRAM.Alloc(2); err != nil {
				return err
			}
			vAddr, err = d.SRAM.Alloc(2)
			return err
		},
		main: func(env *Env) {
			// Volatile state must be zero at every boot.
			bootVolatile = append(bootVolatile, env.LoadWord(vAddr))
			env.StoreWord(vAddr, 0xAAAA)
			for {
				env.StoreWord(nvAddr, env.LoadWord(nvAddr)+1)
				env.Compute(500)
			}
		},
	}
	r := NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots < 2 {
		t.Fatalf("expected multiple reboots, got %+v", res)
	}
	for i, v := range bootVolatile {
		if v != 0 {
			t.Fatalf("boot %d saw non-zero volatile memory %#x", i, v)
		}
	}
	nv, _ := d.Mem.ReadWord(nvAddr)
	if nv == 0 {
		t.Fatal("non-volatile progress must survive reboots")
	}
	if res.Stats.ActiveTime <= 0 || res.Stats.ChargeTime <= 0 {
		t.Fatalf("time accounting: %+v", res.Stats)
	}
}

func TestPowerFailureUnwindsBeforeStore(t *testing.T) {
	// A store interrupted by power failure must NOT be applied: the panic
	// fires during the time the write would take, like hardware dying
	// mid-cycle.
	d := constDevice(2, units.MilliAmps(0.5))
	var addr memsim.Addr
	prog := &testProg{
		name: "atomic",
		flash: func(d *Device) error {
			var err error
			addr, err = d.FRAM.Alloc(2)
			return err
		},
		main: func(env *Env) {
			for {
				v := env.LoadWord(addr)
				env.StoreWord(addr, v+1)
			}
		},
	}
	r := NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	// Pre-charge and run until one brown-out.
	if !d.IdleCharge(units.Seconds(2)) {
		t.Fatal("never charged")
	}
	env := &Env{D: d}
	if o, _ := Catch(func() Outcome { prog.main(env); return OutReturned }); o != OutPowerFailure {
		t.Fatalf("want OutPowerFailure, got %v", o)
	}
	// The counter is consistent: whatever value is stored was stored
	// completely (16-bit writes are atomic on FRAM).
	v, err := d.Mem.ReadWord(addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = v // any value is fine; the point is no partial write / no panic here
}

func TestMemoryFaultWedgesUntilBrownout(t *testing.T) {
	d := constDevice(3, units.MilliAmps(0.5))
	prog := &testProg{
		name: "fault",
		main: func(env *Env) {
			env.Compute(100)
			env.LoadWord(0x0002) // NULL->prev: unmapped
			t.Fatal("unreachable")
		},
	}
	r := NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 {
		t.Fatalf("expected faults, got %+v", res)
	}
	// Every boot faults again: faults ≈ reboots.
	if res.Reboots < res.Faults-1 {
		t.Fatalf("fault must recur every boot: %+v", res)
	}
}

// TestEnvFaultsAllocateNothing drives each faulting Env accessor through
// Catch. Each ends in OutMemoryFault, panics with the device's own
// *MemoryFault, which points at the device's memsim.Fault holding the
// access's address and direction, and allocates nothing. memsim's
// error-returning accessors still return a fresh *Fault per call.
func TestEnvFaultsAllocateNothing(t *testing.T) {
	d := constDevice(1, units.MilliAmps(10))
	powerOn(d)
	env := &Env{D: d}
	cases := []struct {
		name  string
		addr  memsim.Addr
		write bool
		fn    func(a memsim.Addr)
	}{
		{"LoadWord", 0x0002, false, func(a memsim.Addr) { env.LoadWord(a) }},
		{"StoreWord", memsim.SRAMBase + memsim.SRAMSize - 1, true, func(a memsim.Addr) { env.StoreWord(a, 7) }}, // straddles SRAM's end
		{"LoadByte", 0x3000, false, func(a memsim.Addr) { env.LoadByte(a) }},
		{"StoreByte", 0xFF10, true, func(a memsim.Addr) { env.StoreByte(a, 7) }},
	}
	for _, tc := range cases {
		var o Outcome
		allocs := testing.AllocsPerRun(100, func() {
			o, _ = Catch(func() Outcome { tc.fn(tc.addr); return OutReturned })
		})
		if o != OutMemoryFault {
			t.Fatalf("%s: outcome %v, want OutMemoryFault", tc.name, o)
		}
		if allocs != 0 {
			t.Errorf("%s: a fault allocates %.1f times, want 0", tc.name, allocs)
		}
		func() {
			defer func() {
				p := recover()
				mf, ok := p.(*MemoryFault)
				if !ok || mf != &d.fault.panicked || mf.Fault != &d.fault.access {
					t.Fatalf("%s: panicked with %#v, want the device's *MemoryFault", tc.name, p)
				}
				if want := (memsim.Fault{Addr: tc.addr, Write: tc.write}); *mf.Fault != want || mf.At != d.Clock.Now() {
					t.Fatalf("%s: fault %+v at cycle %d, want %+v at %d", tc.name, *mf.Fault, mf.At, want, d.Clock.Now())
				}
			}()
			tc.fn(tc.addr)
		}()
	}

	m := d.Mem
	for _, acc := range []struct {
		name  string
		write bool
		call  func() error
	}{
		{"ReadWord", false, func() error { _, err := m.ReadWord(0x0002); return err }},
		{"WriteWord", true, func() error { return m.WriteWord(0x0002, 1) }},
		{"ReadByteAt", false, func() error { _, err := m.ReadByteAt(0x0002); return err }},
		{"WriteByteAt", true, func() error { return m.WriteByteAt(0x0002, 1) }},
	} {
		e0, e1 := acc.call(), acc.call()
		f0, ok0 := e0.(*memsim.Fault)
		f1, ok1 := e1.(*memsim.Fault)
		if !ok0 || !ok1 {
			t.Fatalf("memsim %s returned %v and %v, want *memsim.Fault", acc.name, e0, e1)
		}
		if f0 == f1 || f0 == &d.fault.access {
			t.Errorf("memsim %s returned a shared *Fault; each call must return its own", acc.name)
		}
		if want := (memsim.Fault{Addr: 0x0002, Write: acc.write}); *f0 != want || *f1 != want {
			t.Errorf("memsim %s: faults %+v, %+v, want %+v", acc.name, *f0, *f1, want)
		}
	}
}

func TestDeadlineStopsInfiniteProgram(t *testing.T) {
	d := constDevice(4, units.MilliAmps(5)) // plenty of power: no reboots
	prog := &testProg{name: "inf", main: func(env *Env) {
		for {
			env.Compute(1000)
		}
	}}
	r := NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.MilliSeconds(500))
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineHit {
		t.Fatalf("deadline must fire: %+v", res)
	}
	if res.SimTime < units.MilliSeconds(490) || res.SimTime > units.MilliSeconds(600) {
		t.Fatalf("sim time = %v", res.SimTime)
	}
}

func TestProgramCompletion(t *testing.T) {
	d := constDevice(5, units.MilliAmps(5))
	prog := &testProg{name: "done", main: func(env *Env) { env.Compute(100) }}
	r := NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("program must complete: %+v", res)
	}
}

func TestNeverPowered(t *testing.T) {
	d := NewWISP5(energy.NullHarvester{}, 6)
	prog := &testProg{name: "np", main: func(env *Env) {}}
	r := NewRunner(d, prog)
	r.MaxChargeTime = units.MilliSeconds(50)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	_, err := r.RunFor(units.Seconds(1))
	if !errors.Is(err, ErrNeverPowered) {
		t.Fatalf("err = %v", err)
	}
}

func TestSleepReducesDrain(t *testing.T) {
	run := func(sleep bool) units.Volts {
		d := NewWISP5(energy.NullHarvester{}, 7)
		powerOn(d)
		env := &Env{D: d}
		Catch(func() Outcome {
			if sleep {
				env.Sleep(40000)
			} else {
				env.Compute(40000)
			}
			return OutReturned
		})
		return d.Supply.Voltage()
	}
	vSleep := run(true)
	vActive := run(false)
	if vSleep <= vActive {
		t.Fatalf("sleep must drain less: sleep=%v active=%v", vSleep, vActive)
	}
}

func TestLEDLoadIsHeavy(t *testing.T) {
	// §2.2: lighting an LED raises the draw ~5×, making LED tracing
	// unusable on harvested power.
	d := constDevice(8, units.MilliAmps(0.5))
	base := d.TotalLoad()
	env := &Env{D: d}
	powerOn(d)
	env.SetPin(LineLED, true)
	if d.TotalLoad() < base+units.MilliAmps(4) {
		t.Fatalf("LED load: %v -> %v", base, d.TotalLoad())
	}
	env.SetPin(LineLED, false)
	if d.TotalLoad() != base {
		t.Fatalf("LED off must restore load: %v", d.TotalLoad())
	}
}

func TestGPIOEdgesAndToggles(t *testing.T) {
	d := constDevice(9, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	var edges []GPIOEdge
	remove := d.GPIO.Subscribe(func(e GPIOEdge) { edges = append(edges, e) })
	env.SetPin(LineAppPin, true)
	env.SetPin(LineAppPin, true) // no edge: level unchanged
	env.TogglePin(LineAppPin)
	env.PulsePin(LineAppPin)
	if len(edges) != 4 {
		t.Fatalf("edges = %v", edges)
	}
	if d.GPIO.Toggles(LineAppPin) != 4 {
		t.Fatalf("toggles = %d", d.GPIO.Toggles(LineAppPin))
	}
	remove()
	env.SetPin(LineAppPin, true)
	if len(edges) != 4 {
		t.Fatal("unsubscribed listener must not fire")
	}
	if len(d.GPIO.Names()) == 0 {
		t.Fatal("names")
	}
	if edges[0].String() == "" {
		t.Fatal("edge string")
	}
}

func TestUARTTimingAndDelivery(t *testing.T) {
	d := constDevice(10, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	var got []byte
	d.UART.Subscribe(func(at sim.Cycles, b byte) { got = append(got, b) })
	t0 := d.Clock.Now()
	env.UARTWrite([]byte("hi"))
	elapsed := d.Clock.Now() - t0
	// 2 bytes at 115200 baud, 10 bits each: ~174 µs ≈ 695 cycles.
	if elapsed < 600 || elapsed > 800 {
		t.Fatalf("2-byte transmit took %d cycles", elapsed)
	}
	if string(got) != "hi" {
		t.Fatalf("delivered %q", got)
	}
	if d.UART.BytesSent() != 2 {
		t.Fatalf("bytes sent = %d", d.UART.BytesSent())
	}
}

func TestUARTReceiveTimeout(t *testing.T) {
	d := constDevice(11, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	if _, ok := env.UARTRead(100); ok {
		t.Fatal("read with empty queue must time out")
	}
	d.UART.Inject([]byte{0x42})
	b, ok := env.UARTRead(100)
	if !ok || b != 0x42 {
		t.Fatalf("b=%#x ok=%v", b, ok)
	}
	if d.UART.RxPending() != 0 {
		t.Fatal("queue must drain")
	}
}

type fakeI2C struct{ regs [256]byte }

func (f *fakeI2C) I2CAddr() byte             { return 0x42 }
func (f *fakeI2C) ReadReg(r byte) byte       { return f.regs[r] }
func (f *fakeI2C) WriteReg(r byte, val byte) { f.regs[r] = val }

func TestI2CTransactions(t *testing.T) {
	d := constDevice(12, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	dev := &fakeI2C{}
	dev.regs[3] = 7
	d.I2C.Attach(dev)
	var seen []I2CTransfer
	d.I2C.Subscribe(func(tr I2CTransfer) { seen = append(seen, tr) })

	got, err := env.I2CReadRegs(0x42, 3, 2)
	if err != nil || got[0] != 7 {
		t.Fatalf("read: %v %v", got, err)
	}
	if err := env.I2CWriteRegs(0x42, 10, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if dev.regs[10] != 1 || dev.regs[11] != 2 {
		t.Fatal("write did not land")
	}
	if len(seen) != 2 || seen[0].Write || !seen[1].Write {
		t.Fatalf("transfers = %v", seen)
	}
	if _, err := env.I2CReadRegs(0x99, 0, 1); err == nil {
		t.Fatal("missing device must error")
	}
	if seen[0].String() == "" {
		t.Fatal("transfer string")
	}
}

func TestRFQueueAndDecodeCost(t *testing.T) {
	d := constDevice(13, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	d.RF.Deliver(RFFrame{Bits: []byte{1, 2, 3}})
	d.RF.Deliver(RFFrame{Bits: []byte{9}, Corrupted: true})
	if d.RF.Pending() != 2 {
		t.Fatalf("pending = %d", d.RF.Pending())
	}
	t0 := d.Clock.Now()
	f, ok, corrupt := env.RFReceive()
	if !ok || corrupt || len(f.Bits) != 3 {
		t.Fatalf("recv: %v %v %v", f, ok, corrupt)
	}
	if d.Clock.Now() == t0 {
		t.Fatal("decode must cost cycles")
	}
	_, ok, corrupt = env.RFReceive()
	if ok || !corrupt {
		t.Fatal("corrupted frame must decode to failure")
	}
	_, ok, corrupt = env.RFReceive()
	if ok || corrupt {
		t.Fatal("empty queue")
	}
}

func TestRFTransmitReachesReader(t *testing.T) {
	d := constDevice(14, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	var heard []byte
	d.RF.OnTransmit = func(at sim.Cycles, f RFFrame) { heard = f.Bits }
	var monitored []byte
	d.RF.SubscribeTx(func(f RFFrame) { monitored = f.Bits })
	env.RFTransmit([]byte{0x81, 0xAA})
	if string(heard) != string([]byte{0x81, 0xAA}) || string(monitored) != string(heard) {
		t.Fatalf("heard=%v monitored=%v", heard, monitored)
	}
}

func TestRFQueueBounded(t *testing.T) {
	d := constDevice(15, units.MilliAmps(5))
	for i := 0; i < 100; i++ {
		d.RF.Deliver(RFFrame{Bits: []byte{byte(i)}})
	}
	if d.RF.Pending() > 8 {
		t.Fatalf("demodulator queue unbounded: %d", d.RF.Pending())
	}
}

type countingMonitor struct {
	period sim.Cycles
	calls  int
	last   sim.Cycles
}

func (m *countingMonitor) Period() sim.Cycles { return m.period }
func (m *countingMonitor) Sample(now sim.Cycles) {
	m.calls++
	m.last = now
}

func TestMonitorsRunWhileOnAndOff(t *testing.T) {
	d := constDevice(16, units.MilliAmps(1))
	m := &countingMonitor{period: 400} // 100 µs
	d.AddMonitor(m)
	// While charging (off):
	d.IdleCharge(units.Seconds(2))
	offCalls := m.calls
	if offCalls == 0 {
		t.Fatal("monitors must sample while the target is off")
	}
	// While executing:
	env := &Env{D: d}
	Catch(func() Outcome { env.Compute(40000); return OutReturned })
	if m.calls <= offCalls {
		t.Fatal("monitors must sample while the target runs")
	}
}

func TestMonitorRemoval(t *testing.T) {
	d := constDevice(17, units.MilliAmps(1))
	m := &countingMonitor{period: 400}
	remove := d.AddMonitor(m)
	d.IdleCharge(units.MilliSeconds(10))
	n := m.calls
	remove()
	d.IdleCharge(units.MilliSeconds(10))
	if m.calls != n {
		t.Fatal("removed monitor must not fire")
	}
}

type fixedProbe struct{ i units.Amps }

func (p fixedProbe) LeakageCurrent() units.Amps { return p.i }

func TestProbeLeakageSlowsCharging(t *testing.T) {
	charge := func(leak units.Amps) sim.Cycles {
		d := NewWISP5(&energy.ConstantHarvester{I: units.MicroAmps(100), Voc: 3.3}, 18)
		if leak > 0 {
			d.AddProbe(fixedProbe{leak})
		}
		d.IdleCharge(units.Seconds(10))
		return d.Clock.Now()
	}
	clean := charge(0)
	loaded := charge(units.MicroAmps(50))
	if loaded <= clean {
		t.Fatalf("a 50 µA probe must slow charging: %d vs %d", loaded, clean)
	}
	// EDB-scale leakage (sub-µA) must be nearly invisible.
	edbish := charge(units.NanoAmps(840))
	ratio := float64(edbish) / float64(clean)
	if ratio > 1.02 {
		t.Fatalf("sub-µA probe changed charge time by %.1f%%", 100*(ratio-1))
	}
}

func TestInterruptInvokesISR(t *testing.T) {
	d := constDevice(19, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	calls := 0
	d.SetISR(func(env *Env) { calls++ })
	env.Compute(1000)
	if calls != 0 {
		t.Fatal("ISR must not run without an interrupt")
	}
	d.RaiseInterrupt()
	env.Compute(1000)
	if calls != 1 {
		t.Fatalf("ISR calls = %d", calls)
	}
	env.Compute(1000)
	if calls != 1 {
		t.Fatal("interrupt must be one-shot")
	}
}

func TestRebootClearsTransientState(t *testing.T) {
	d := constDevice(20, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	env.SetPin(LineAppPin, true)
	d.SetLoad("x", units.MilliAmps(1))
	d.UART.Inject([]byte{1})
	d.RaiseInterrupt()
	d.Reboot()
	if d.GPIO.Level(LineAppPin) {
		t.Fatal("GPIO must reset on reboot")
	}
	if d.UART.RxPending() != 0 {
		t.Fatal("UART queue must reset")
	}
	if d.TotalLoad() != d.Config().ActiveCurrent {
		t.Fatal("loads must reset")
	}
	if d.Stats().Reboots != 1 {
		t.Fatal("reboot count")
	}
}

func TestAdvanceIdleKeepsMonitorsAlive(t *testing.T) {
	d := constDevice(21, units.MilliAmps(1))
	m := &countingMonitor{period: 4000}
	d.AddMonitor(m)
	d.AdvanceIdle(units.MilliSeconds(10))
	if m.calls == 0 {
		t.Fatal("AdvanceIdle must run monitors")
	}
}

func TestSelfMeasureCostsEnergy(t *testing.T) {
	d := NewWISP5(energy.NullHarvester{}, 22)
	powerOn(d)
	env := &Env{D: d}
	v0 := d.Supply.Voltage()
	got := env.MeasureSelfVoltage()
	if got <= 0 {
		t.Fatal("measurement value")
	}
	if d.Supply.Voltage() >= v0 {
		t.Fatal("self-measurement must perturb the energy state (§4.1)")
	}
}

// Version moves on debugger-wire edges and at reset, and nowhere else.
func TestGPIOVersionTracksDebugWires(t *testing.T) {
	d := constDevice(18, units.MilliAmps(5))
	powerOn(d)
	env := &Env{D: d}
	for _, line := range []string{LineAppPin, LineLED, "aux"} {
		v := d.GPIO.Version()
		env.TogglePin(line)
		env.TogglePin(line)
		if d.GPIO.Version() != v {
			t.Fatalf("%s edges moved the version", line)
		}
	}
	for _, line := range []string{LineCodeMarker0, LineCodeMarker1, LineDebugSignal, LineInterrupt} {
		v := d.GPIO.Version()
		env.SetPin(line, true)
		if d.GPIO.Version() == v {
			t.Fatalf("%s edge left the version at %d", line, v)
		}
	}
	v := d.GPIO.Version()
	d.Reboot()
	if d.GPIO.Version() == v {
		t.Fatal("reset left the version unchanged")
	}
}

// adderMonitor registers a second monitor from inside its first sample.
type adderMonitor struct {
	d     *Device
	added *countingMonitor
}

func (m *adderMonitor) Period() sim.Cycles { return 1 << 20 }
func (m *adderMonitor) Sample(sim.Cycles) {
	if m.added == nil {
		m.added = &countingMonitor{period: 400}
		m.d.AddMonitor(m.added)
	}
}

// A monitor registered while the monitors run is sampled at the next step,
// even though no earlier monitor is due then.
func TestMonitorAddedDuringSampleRunsNextStep(t *testing.T) {
	d := constDevice(19, units.MilliAmps(5))
	powerOn(d)
	m := &adderMonitor{d: d}
	d.AddMonitor(m)
	env := &Env{D: d}
	env.Compute(1)
	if m.added == nil {
		t.Fatal("first monitor never sampled")
	}
	env.Compute(1)
	if m.added.calls != 1 || m.added.last != 1 {
		t.Fatalf("added monitor: %d samples, last at %d; want 1 at cycle 1", m.added.calls, m.added.last)
	}
}

// Restoring a snapshot taken before a sample re-arms the monitor scan.
func TestMonitorsResampleAfterRestore(t *testing.T) {
	d := constDevice(20, units.MilliAmps(5))
	powerOn(d)
	m := &countingMonitor{period: 400}
	d.AddMonitor(m)
	env := &Env{D: d}
	env.Compute(10)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	env.Compute(1000)
	n := m.calls
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	env.Compute(1000)
	if got := m.calls - n; got != n-1 {
		t.Fatalf("after restore %d samples in the same window, want %d", got, n-1)
	}
}
