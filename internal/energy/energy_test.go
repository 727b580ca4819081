package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestCapacitorChargeDischargeSymmetry(t *testing.T) {
	c := NewCapacitor(units.MicroFarads(47), 3.0)
	c.SetVoltage(2.0)
	e0 := c.Energy()
	c.AddEnergy(units.MicroJoules(10))
	c.DrainEnergy(units.MicroJoules(10))
	if math.Abs(float64(c.Energy()-e0)) > 1e-12 {
		t.Fatalf("add+drain not symmetric: %v vs %v", c.Energy(), e0)
	}
}

func TestCapacitorClamps(t *testing.T) {
	c := NewCapacitor(units.MicroFarads(47), 3.0)
	c.SetVoltage(5.0)
	if c.Voltage() != 3.0 {
		t.Fatalf("over-voltage not clamped: %v", c.Voltage())
	}
	c.SetVoltage(-1)
	if c.Voltage() != 0 {
		t.Fatalf("negative voltage not clamped: %v", c.Voltage())
	}
	c.DrainEnergy(units.Joules(1)) // overdrain
	if c.Voltage() != 0 {
		t.Fatalf("overdrain must empty, got %v", c.Voltage())
	}
	c.DrainEnergy(-1) // no-op
	c.AddEnergy(-1)   // no-op
	if c.Voltage() != 0 {
		t.Fatal("negative energy ops must be no-ops")
	}
}

func TestApplyCurrentIntegration(t *testing.T) {
	// dV = I·dt/C: 1 mA for 47 ms on 47 µF = 1 V.
	c := NewCapacitor(units.MicroFarads(47), 3.0)
	c.ApplyCurrent(units.MilliAmps(1), units.MilliSeconds(47))
	if math.Abs(float64(c.Voltage())-1.0) > 1e-9 {
		t.Fatalf("V = %v, want 1", c.Voltage())
	}
	c.ApplyCurrent(units.MilliAmps(-1), units.MilliSeconds(47))
	if math.Abs(float64(c.Voltage())) > 1e-9 {
		t.Fatalf("V = %v, want 0", c.Voltage())
	}
}

func TestEnergyBetween(t *testing.T) {
	c := NewCapacitor(units.MicroFarads(47), 3.0)
	// The paper's reference numbers: ½·47µ·(2.4²−1.8²) ≈ 59.2 µJ.
	de := c.EnergyBetween(1.8, 2.4)
	if math.Abs(float64(de)-59.22e-6) > 0.1e-6 {
		t.Fatalf("dE = %v", de)
	}
	if c.EnergyBetween(2.4, 1.8) >= 0 {
		t.Fatal("downward delta must be negative")
	}
}

func TestEnergyNonNegativeInvariant(t *testing.T) {
	f := func(ops []float64) bool {
		c := NewCapacitor(units.MicroFarads(47), 3.0)
		c.SetVoltage(1.5)
		for _, op := range ops {
			if math.IsNaN(op) || math.IsInf(op, 0) {
				continue
			}
			c.ApplyCurrent(units.Amps(math.Mod(op, 0.01)), units.MicroSeconds(100))
			if c.Voltage() < 0 || c.Voltage() > 3.0 || c.Energy() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRFHarvesterPathLoss(t *testing.T) {
	h := NewRFHarvester()
	h.Noise = nil
	p1 := h.ReceivedPower()
	h.Distance = 2.0
	p2 := h.ReceivedPower()
	// Friis: doubling distance quarters the received power.
	if math.Abs(float64(p1)/float64(p2)-4.0) > 1e-9 {
		t.Fatalf("path loss ratio = %v", float64(p1)/float64(p2))
	}
	h.CarrierOn = false
	if h.ReceivedPower() != 0 || h.Current(1.5) != 0 {
		t.Fatal("carrier off must harvest nothing")
	}
}

func TestRFHarvesterTaper(t *testing.T) {
	h := NewRFHarvester()
	h.Noise = nil
	if h.Current(h.Voc) != 0 {
		t.Fatal("no current at open-circuit voltage")
	}
	if h.Current(units.Volts(float64(h.Voc)+0.5)) != 0 {
		t.Fatal("no current above open-circuit voltage")
	}
	// Deliverable current decreases with voltage.
	if h.Current(1.8) <= h.Current(2.8) {
		t.Fatalf("taper violated: %v vs %v", h.Current(1.8), h.Current(2.8))
	}
}

func TestConstantAndNullHarvesters(t *testing.T) {
	ch := &ConstantHarvester{I: units.MilliAmps(1), Voc: 3.0}
	if ch.Current(2.0) != units.MilliAmps(1) || ch.Current(3.0) != 0 {
		t.Fatal("constant harvester")
	}
	if (NullHarvester{}).Current(1.0) != 0 {
		t.Fatal("null harvester")
	}
	if ch.Name() == "" || (NullHarvester{}).Name() == "" {
		t.Fatal("harvesters must be named")
	}
}

func TestSolarHarvesterScale(t *testing.T) {
	scale := 1.0
	sh := &SolarHarvester{IMax: units.MilliAmps(2), Voc: 3.0, Scale: func() float64 { return scale }}
	full := sh.Current(1.5)
	scale = 0.5
	half := sh.Current(1.5)
	if math.Abs(float64(full)/float64(half)-2) > 1e-9 {
		t.Fatalf("scaling broken: %v vs %v", full, half)
	}
	if sh.Current(3.0) != 0 {
		t.Fatal("voc taper")
	}
}

func TestSupplySawtooth(t *testing.T) {
	// Charge with no load, turn on at 2.4 V, discharge under load to 1.8 V,
	// turn off: the paper's Fig. 2B cycle.
	s := WISP5Supply(&ConstantHarvester{I: units.MilliAmps(1), Voc: 3.3})
	if s.State() != PowerOff {
		t.Fatal("must start off")
	}
	dt, err := s.ChargeUntilOn(units.MicroSeconds(100), units.Seconds(5))
	if err != nil {
		t.Fatal(err)
	}
	// 2.4 V on 47 µF at 1 mA is ~113 ms.
	if dt < units.MilliSeconds(90) || dt > units.MilliSeconds(140) {
		t.Fatalf("charge time = %v", dt)
	}
	if s.State() != PowerOn {
		t.Fatal("must be on after charge")
	}
	// Load 3 mA (net -2 mA): 0.6 V fall takes ~14 ms.
	var elapsed units.Seconds
	for s.State() == PowerOn {
		s.Step(units.MilliAmps(3), units.MicroSeconds(100))
		elapsed += units.MicroSeconds(100)
		if elapsed > 1 {
			t.Fatal("never browned out")
		}
	}
	if elapsed < units.MilliSeconds(10) || elapsed > units.MilliSeconds(20) {
		t.Fatalf("discharge time = %v", elapsed)
	}
	if s.Voltage() >= s.VBrownOut+0.01 {
		t.Fatalf("voltage after brownout = %v", s.Voltage())
	}
}

func TestSupplyTetherIsolation(t *testing.T) {
	s := WISP5Supply(&ConstantHarvester{I: units.MilliAmps(1), Voc: 3.3})
	s.Cap.SetVoltage(2.0)
	s.SetTethered(true)
	v0 := s.Voltage()
	for i := 0; i < 1000; i++ {
		s.Step(units.MilliAmps(5), units.MicroSeconds(100))
	}
	if s.Voltage() != v0 {
		t.Fatalf("tethered capacitor must hold: %v vs %v", s.Voltage(), v0)
	}
	if !s.Tethered() {
		t.Fatal("tethered flag")
	}
}

func TestSupplyEnergyAccounting(t *testing.T) {
	s := WISP5Supply(&ConstantHarvester{I: units.MilliAmps(1), Voc: 3.3})
	if _, err := s.ChargeUntilOn(units.MicroSeconds(100), units.Seconds(5)); err != nil {
		t.Fatal(err)
	}
	if s.Harvested() <= 0 {
		t.Fatal("harvested energy must accumulate")
	}
	h0 := s.Harvested()
	s.Step(units.MilliAmps(3), units.MilliSeconds(1))
	if s.Consumed() <= 0 {
		t.Fatal("consumed energy must accumulate")
	}
	if s.Harvested() <= h0 {
		t.Fatal("harvest continues during discharge")
	}
}

func TestChargeUntilOnFailure(t *testing.T) {
	s := WISP5Supply(NullHarvester{})
	if _, err := s.ChargeUntilOn(units.MilliSeconds(1), units.MilliSeconds(100)); err == nil {
		t.Fatal("null harvester must fail to reach turn-on")
	}
}

func TestReferenceEnergy(t *testing.T) {
	s := WISP5Supply(NullHarvester{})
	// ½·47µ·2.4² ≈ 135.4 µJ.
	if math.Abs(float64(s.ReferenceEnergy())-135.36e-6) > 0.1e-6 {
		t.Fatalf("reference energy = %v", s.ReferenceEnergy())
	}
}

func TestHarvestNoiseBounded(t *testing.T) {
	h := NewRFHarvester()
	base := func() float64 {
		h2 := NewRFHarvester()
		h2.Noise = nil
		return float64(h2.Current(2.0))
	}()
	for i := 0; i < 1000; i++ {
		v := float64(h.Current(2.0))
		if v < base*(1-h.NoiseFrac)-1e-12 || v > base*(1+h.NoiseFrac)+1e-12 {
			t.Fatalf("noise out of bounds: %v vs base %v", v, base)
		}
	}
}

func TestPowerStateString(t *testing.T) {
	if PowerOn.String() != "on" || PowerOff.String() != "off" {
		t.Fatal("state strings")
	}
}

// TestEnergyConservation: over any charge/discharge trajectory that stays
// inside the clamps, harvested − consumed equals the change in stored
// energy to within integration error (first law, per Supply.Step's
// bookkeeping).
func TestEnergyConservation(t *testing.T) {
	s := WISP5Supply(&ConstantHarvester{I: units.MicroAmps(400), Voc: 3.3})
	s.Cap.SetVoltage(2.0)
	s.Step(0, 0) // latch state without energy flow
	e0 := float64(s.Cap.Energy())
	dt := units.MicroSeconds(50)
	for i := 0; i < 200000; i++ {
		// Alternate light and heavy load with a 400 µA average, equal to
		// the harvest, so the trajectory oscillates inside (0, VMax)
		// without touching the clamps (clamping discards energy the
		// bookkeeping has already counted).
		load := units.MicroAmps(100)
		if i%1000 < 400 {
			load = units.MicroAmps(850)
		}
		s.Step(load, dt)
	}
	e1 := float64(s.Cap.Energy())
	balance := float64(s.Harvested()) - float64(s.Consumed())
	change := e1 - e0
	if diff := balance - change; diff > 1e-7 || diff < -1e-7 {
		t.Fatalf("energy books do not balance: harvested-consumed=%v, ΔE=%v (diff %v)",
			balance, change, diff)
	}
}

// The Friis memo must see every field ReceivedPower reads, whenever it
// changes: the result always equals a fresh harvester's.
func TestReceivedPowerMemoTracksFields(t *testing.T) {
	h := NewRFHarvester()
	check := func(step string) {
		t.Helper()
		fresh := *h
		fresh.prValid = false
		if got, want := h.ReceivedPower(), fresh.ReceivedPower(); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("%s: memoized %v, fresh %v", step, got, want)
		}
	}
	check("initial")
	h.TxPower = 27
	check("TxPower")
	h.Distance = 2.5
	check("Distance")
	h.FreqMHz = 868
	check("FreqMHz")
	h.AntennaGainDBi = 6
	check("AntennaGainDBi")
	h.PowerScale = 0.25
	check("PowerScale")
	h.PowerScale = -1 // unset again: scale 1
	check("PowerScale unset")
	h.CarrierOn = false
	check("carrier off")
	h.CarrierOn = true
	check("carrier on")
	h.Distance = units.Meters(math.NaN())
	check("NaN distance")
}

// rfWrapper hides the concrete *RFHarvester type from Supply.Step, which
// then takes the interface path.
type rfWrapper struct{ *RFHarvester }

// Supply.Step's direct call into *RFHarvester must integrate exactly as the
// interface call does.
func TestSupplyStepRFFastPathMatchesInterface(t *testing.T) {
	fast := WISP5Supply(NewRFHarvester())
	slow := WISP5Supply(rfWrapper{NewRFHarvester()})
	fast.Cap.SetVoltage(2.4)
	slow.Cap.SetVoltage(2.4)
	dt := units.Seconds(64.0 / 4e6)
	for i := 0; i < 20000; i++ {
		load := units.MilliAmps(1.2)
		if i%7 == 0 {
			load = 0
		}
		a, b := fast.Step(load, dt), slow.Step(load, dt)
		if a != b || fast.SnapshotState() != slow.SnapshotState() {
			t.Fatalf("step %d: fast %v %+v, interface %v %+v", i, a, fast.SnapshotState(), b, slow.SnapshotState())
		}
	}
}
