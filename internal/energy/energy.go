// Package energy models the power system of an energy-harvesting device:
// the storage capacitor, the ambient harvester, and the regulator's
// turn-on / brown-out comparator. Together they produce the characteristic
// "sawtooth" charge-discharge dynamics of Figure 2B in the paper, which is
// the root cause of intermittent execution.
//
// Physics: the storage element is a capacitor C. Its stored energy is
// E = ½CV². A net current I (harvest minus load) changes the voltage as
// dV/dt = I/C. The harvester behaves as a high-source-resistance supply: its
// deliverable current falls as the capacitor voltage approaches the
// harvester's open-circuit voltage, producing the RC-flavored charge curve
// the paper describes.
package energy

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// Capacitor is an energy storage capacitor with an absolute voltage ceiling
// (the harvester front end clamps at VMax, e.g. by an over-voltage shunt).
type Capacitor struct {
	C    units.Farads
	VMax units.Volts

	v units.Volts
}

// NewCapacitor returns a capacitor of capacitance c clamped at vmax,
// initially empty.
func NewCapacitor(c units.Farads, vmax units.Volts) *Capacitor {
	return &Capacitor{C: c, VMax: vmax}
}

// Voltage returns the present capacitor voltage.
func (c *Capacitor) Voltage() units.Volts { return c.v }

// SetVoltage forces the capacitor to voltage v, clamped to [0, VMax]. It is
// used by EDB's charge/discharge circuit and by test setup.
func (c *Capacitor) SetVoltage(v units.Volts) {
	c.v = units.Volts(units.Clamp(float64(v), 0, float64(c.VMax)))
}

// Energy returns the stored energy ½CV².
func (c *Capacitor) Energy() units.Joules {
	return units.CapacitorEnergy(c.C, c.v)
}

// MaxEnergy returns the energy stored at VMax — the denominator the paper
// uses when quoting costs as "% of storage capacity".
func (c *Capacitor) MaxEnergy() units.Joules {
	return units.CapacitorEnergy(c.C, c.VMax)
}

// ApplyCurrent integrates a net current i over dt: dV = i·dt/C. Positive i
// charges; negative discharges. Voltage clamps to [0, VMax].
func (c *Capacitor) ApplyCurrent(i units.Amps, dt units.Seconds) {
	dv := float64(i) * float64(dt) / float64(c.C)
	c.SetVoltage(c.v + units.Volts(dv))
}

// DrainEnergy removes e joules, clamping at empty:
// V' = sqrt(max(0, V² − 2e/C)).
func (c *Capacitor) DrainEnergy(e units.Joules) {
	if e <= 0 {
		return
	}
	v2 := float64(c.v)*float64(c.v) - 2*float64(e)/float64(c.C)
	if v2 <= 0 {
		c.v = 0
		return
	}
	c.v = units.Volts(math.Sqrt(v2))
}

// AddEnergy stores e joules, clamping at VMax.
func (c *Capacitor) AddEnergy(e units.Joules) {
	if e <= 0 {
		return
	}
	v2 := float64(c.v)*float64(c.v) + 2*float64(e)/float64(c.C)
	c.SetVoltage(units.Volts(math.Sqrt(v2)))
}

// EnergyBetween returns the energy difference ½C(v1²−v0²); positive when
// v1 > v0. Used by EDB's compensation accounting and by Table 3.
func (c *Capacitor) EnergyBetween(v0, v1 units.Volts) units.Joules {
	return units.Joules(0.5 * float64(c.C) * (float64(v1)*float64(v1) - float64(v0)*float64(v0)))
}

// Harvester supplies charging current as a function of the present storage
// voltage. Implementations model different ambient sources.
type Harvester interface {
	// Current returns the charge current delivered into a store currently
	// at voltage v. Implementations return 0 when no energy is available.
	Current(v units.Volts) units.Amps
	// Name identifies the harvester in traces.
	Name() string
}

// AnalyticCharger is implemented by harvesters whose no-load charge curve
// has a closed form. ChargeTime returns the time to charge capacitance c
// from v0 to v1 under zero load, and whether the closed form applies.
// Implementations must return false whenever their current is stochastic or
// the target voltage is unreachable; callers then fall back to stepped
// integration.
type AnalyticCharger interface {
	ChargeTime(c units.Farads, v0, v1 units.Volts) (units.Seconds, bool)
}

// RFHarvester models the WISP's RF energy front end: a rectifier fed by a
// reader's carrier. Received power follows a Friis-style path-loss model
// from the reader's transmit power and distance; conversion efficiency and
// the rectifier's open-circuit voltage shape the delivered current.
//
// The paper's setup: Impinj Speedway reader at up to 30 dBm, antenna 1 m
// from the WISP; "the amount of harvestable energy is inversely proportional
// to this distance".
type RFHarvester struct {
	TxPower    units.DBm    // reader transmit power
	Distance   units.Meters // reader-to-tag separation
	FreqMHz    float64      // carrier frequency (915 MHz UHF RFID)
	Efficiency float64      // RF→DC conversion efficiency (0..1)
	Voc        units.Volts  // rectifier open-circuit voltage
	CarrierOn  bool         // reader carrier present

	// AntennaGainDBi is the combined TX+RX antenna gain in dBi.
	AntennaGainDBi float64

	// PowerScale scales the received power (0 or negative means 1, the
	// default). Fleet simulations use it for reader-contention models: a
	// reader time-sharing its carrier across many tags delivers each a
	// fraction of the solo power. It participates in the Friis memo and
	// the closed-form charge solve, so scaled charging still fast-forwards.
	PowerScale float64

	// Noise models small-scale fading of the RF channel: each current
	// draw is jittered by ±NoiseFrac. Without it the supply is perfectly
	// deterministic and intermittent executions phase-lock — every
	// brown-out lands on the same instruction, which no real deployment
	// exhibits. Noise is seeded, so runs remain reproducible.
	Noise     *sim.RNG
	NoiseFrac float64

	// Memoized Friis result: ReceivedPower is a pure function of TxPower,
	// Distance, FreqMHz, AntennaGainDBi and PowerScale, and the hot loop
	// (Supply.Step every quantum) calls it through Current with the same
	// configuration for millions of steps. The fields stay public and may
	// change at any time (fleet contention resets PowerScale at every slice
	// barrier), so every call compares each one with the value the memo
	// was computed from.
	prValid bool
	prTx    units.DBm
	prDist  units.Meters
	prFreq  float64
	prGain  float64
	prScale float64
	prCache units.Watts
}

// scale returns the effective PowerScale (unset means 1).
func (h *RFHarvester) scale() float64 {
	if h.PowerScale <= 0 {
		return 1
	}
	return h.PowerScale
}

// NewRFHarvester returns an RF harvester configured like the paper's setup:
// 30 dBm reader, 1 m range, 915 MHz, with carrier on.
func NewRFHarvester() *RFHarvester {
	return &RFHarvester{
		TxPower:        30,
		Distance:       1.0,
		FreqMHz:        915,
		Efficiency:     0.30,
		Voc:            3.3,
		CarrierOn:      true,
		AntennaGainDBi: 12,
		Noise:          sim.NewRNG(1117),
		NoiseFrac:      0.25,
	}
}

// ReceivedPower returns the RF power arriving at the tag antenna per the
// Friis transmission equation.
func (h *RFHarvester) ReceivedPower() units.Watts {
	if !h.CarrierOn || h.Distance <= 0 {
		return 0
	}
	if h.prValid && h.TxPower == h.prTx && h.Distance == h.prDist && h.FreqMHz == h.prFreq &&
		h.AntennaGainDBi == h.prGain && h.PowerScale == h.prScale {
		return h.prCache
	}
	return h.friis()
}

// friis evaluates the Friis equation and memoizes the result under the
// fields it read.
func (h *RFHarvester) friis() units.Watts {
	pt := float64(units.MilliwattsFromDBm(h.TxPower))
	gain := math.Pow(10, h.AntennaGainDBi/10)
	lambda := 299.792458 / h.FreqMHz // wavelength in meters
	denom := 4 * math.Pi * float64(h.Distance) / lambda
	pr := units.Watts(pt * gain / (denom * denom) * h.scale())
	h.prValid, h.prCache = true, pr
	h.prTx, h.prDist, h.prFreq, h.prGain, h.prScale = h.TxPower, h.Distance, h.FreqMHz, h.AntennaGainDBi, h.PowerScale
	return pr
}

// Current implements Harvester. The rectifier behaves like a source with
// open-circuit voltage Voc: deliverable current tapers linearly to zero as
// the store approaches Voc (the high source resistance the paper highlights).
func (h *RFHarvester) Current(v units.Volts) units.Amps {
	pr := float64(h.ReceivedPower()) * h.Efficiency
	if pr <= 0 {
		return 0
	}
	// Convert available DC power to current at the working voltage, with
	// the linear taper toward Voc.
	vEff := max(float64(v), 0.5) // rectifier won't exceed short-circuit behavior
	i := pr / vEff
	taper := 1 - float64(v)/float64(h.Voc)
	if taper <= 0 {
		return 0
	}
	out := i * taper
	if h.Noise != nil && h.NoiseFrac > 0 {
		out = h.Noise.Jitter(out, h.NoiseFrac)
	}
	return units.Amps(out)
}

// Name implements Harvester.
func (h *RFHarvester) Name() string { return "rf" }

// ChargeTime implements AnalyticCharger. The closed form only applies when
// the fading noise is disabled — with noise, each step's current is a fresh
// draw and the trajectory has no closed form (and skipping the draws would
// desynchronize the seeded stream).
//
// The no-load ODE splits at the 0.5 V rectifier knee in Current:
//
//	v < 0.5:  dv/dt = (2P/C)·(1 − v/Voc)        → exponential toward Voc
//	v ≥ 0.5:  dv/dt = (P/C)·(Voc − v)/(v·Voc)   → t = (C·Voc/P)·[(v0−v1) + Voc·ln((Voc−v0)/(Voc−v1))]
func (h *RFHarvester) ChargeTime(c units.Farads, v0, v1 units.Volts) (units.Seconds, bool) {
	if h.Noise != nil && h.NoiseFrac > 0 {
		return 0, false
	}
	p := float64(h.ReceivedPower()) * h.Efficiency
	voc := float64(h.Voc)
	if p <= 0 || voc <= 0 || float64(v1) >= voc {
		return 0, false
	}
	if v1 <= v0 {
		return 0, true
	}
	cf, lo, hi := float64(c), float64(v0), float64(v1)
	var t float64
	if lo < 0.5 {
		seg := math.Min(hi, 0.5)
		t += (cf * voc / (2 * p)) * math.Log((voc-lo)/(voc-seg))
		lo = seg
	}
	if hi > lo {
		t += (cf * voc / p) * ((lo - hi) + voc*math.Log((voc-lo)/(voc-hi)))
	}
	return units.Seconds(t), true
}

// Reseed re-derives the fading stream from seed. Device constructors call
// it so that distinct device seeds see distinct (but reproducible) RF
// channels; without this, every run would share the default stream and
// "different seeds" would leave the supply identical.
func (h *RFHarvester) Reseed(seed int64) {
	if h.Noise != nil {
		h.Noise = sim.NewRNG(seed ^ 0x5eed_0f_4ad1)
	}
}

// Reseeder is implemented by harvesters whose stochastic stream should
// follow the owning device's seed.
type Reseeder interface{ Reseed(seed int64) }

// StatefulHarvester is implemented by harvesters carrying stochastic
// internal state that must ride along in machine snapshots. The bool result
// of HarvesterState is false when the harvester happens to be running
// deterministically (no state to capture).
type StatefulHarvester interface {
	HarvesterState() (sim.RNGState, bool)
	RestoreHarvesterState(sim.RNGState)
}

// HarvesterState implements StatefulHarvester: the fading stream position.
func (h *RFHarvester) HarvesterState() (sim.RNGState, bool) {
	if h.Noise == nil {
		return sim.RNGState{}, false
	}
	return h.Noise.State(), true
}

// RestoreHarvesterState implements StatefulHarvester.
func (h *RFHarvester) RestoreHarvesterState(st sim.RNGState) {
	if h.Noise == nil {
		h.Noise = sim.NewRNG(st.Seed)
	}
	h.Noise.RestoreState(st)
}

// ConstantHarvester delivers a fixed current up to an open-circuit voltage.
// It is useful in tests where a known charge rate is required.
type ConstantHarvester struct {
	I   units.Amps
	Voc units.Volts
}

// Current implements Harvester.
func (h *ConstantHarvester) Current(v units.Volts) units.Amps {
	if v >= h.Voc {
		return 0
	}
	return h.I
}

// Name implements Harvester.
func (h *ConstantHarvester) Name() string { return "constant" }

// ChargeTime implements AnalyticCharger: t = C·(v1−v0)/I.
func (h *ConstantHarvester) ChargeTime(c units.Farads, v0, v1 units.Volts) (units.Seconds, bool) {
	if h.I <= 0 || v1 >= h.Voc {
		return 0, false
	}
	if v1 <= v0 {
		return 0, true
	}
	return units.Seconds(float64(c) * float64(v1-v0) / float64(h.I)), true
}

// NullHarvester supplies no energy; the device runs down and dies. Useful
// for modelling a reader turning off or a tag leaving range.
type NullHarvester struct{}

// Current implements Harvester.
func (NullHarvester) Current(units.Volts) units.Amps { return 0 }

// Name implements Harvester.
func (NullHarvester) Name() string { return "null" }

// SolarHarvester models an indoor-solar source with slow illumination
// variation supplied by the caller (scale in [0,1]).
type SolarHarvester struct {
	IMax  units.Amps
	Voc   units.Volts
	Scale func() float64 // current illumination fraction; nil means 1
}

// Current implements Harvester.
func (h *SolarHarvester) Current(v units.Volts) units.Amps {
	if v >= h.Voc {
		return 0
	}
	s := 1.0
	if h.Scale != nil {
		s = units.Clamp(h.Scale(), 0, 1)
	}
	taper := 1 - float64(v)/float64(h.Voc)
	return units.Amps(float64(h.IMax) * s * taper)
}

// Name implements Harvester.
func (h *SolarHarvester) Name() string { return "solar" }

// PowerState describes whether the regulator has the MCU powered.
type PowerState int

const (
	// PowerOff: voltage below turn-on threshold; MCU unpowered, charging.
	PowerOff PowerState = iota
	// PowerOn: MCU operating; discharging (net of harvest).
	PowerOn
)

func (s PowerState) String() string {
	if s == PowerOn {
		return "on"
	}
	return "off"
}

// Supply combines capacitor, harvester, and the regulator comparator with
// hysteresis: the MCU turns on at VTurnOn and browns out at VBrownOut.
// The paper's WISP 5: 47 µF, turn-on 2.4 V, brown-out 1.8 V.
type Supply struct {
	Cap       *Capacitor
	Harvester Harvester
	VTurnOn   units.Volts
	VBrownOut units.Volts

	state PowerState
	// Tethered indicates EDB is powering the load externally: load current
	// is not drawn from the capacitor and the brown-out comparator is
	// bypassed (the keeper holds the rail).
	tethered bool

	// Accumulated statistics.
	harvested units.Joules
	consumed  units.Joules
}

// NewSupply returns a supply with an arbitrary storage capacitor and
// comparator thresholds — EDB "can connect to any energy-harvesting device
// with a microcontroller and a capacitor" (§4), so non-WISP profiles
// (bigger caps, different rails) are first-class.
func NewSupply(c units.Farads, vmax, vTurnOn, vBrownOut units.Volts, h Harvester) *Supply {
	return &Supply{
		Cap:       NewCapacitor(c, vmax),
		Harvester: h,
		VTurnOn:   vTurnOn,
		VBrownOut: vBrownOut,
	}
}

// WISP5Supply returns a supply configured with the WISP 5 parameters from
// the paper's evaluation: 47 µF storage, 2.4 V turn-on, 1.8 V brown-out.
func WISP5Supply(h Harvester) *Supply {
	return NewSupply(units.MicroFarads(47), 3.0, 2.4, 1.8, h)
}

// State returns the present power state.
func (s *Supply) State() PowerState { return s.state }

// Voltage returns the present storage voltage.
func (s *Supply) Voltage() units.Volts { return s.Cap.Voltage() }

// Tethered reports whether the load is externally powered.
func (s *Supply) Tethered() bool { return s.tethered }

// SetTethered connects (true) or disconnects (false) external power. While
// tethered the capacitor neither charges from the harvester nor discharges
// into the load: EDB's keeper diode isolates it, freezing the energy state
// except for explicit manipulation.
func (s *Supply) SetTethered(t bool) { s.tethered = t }

// ReferenceEnergy returns ½C·VTurnOn² — the "maximum energy storable on
// the target" the paper uses as the denominator when quoting costs as a
// percentage of the 47 µF storage capacity (Vmax = 2.4 V in §5.2.2).
func (s *Supply) ReferenceEnergy() units.Joules {
	return units.CapacitorEnergy(s.Cap.C, s.VTurnOn)
}

// Harvested returns total energy delivered by the harvester so far.
func (s *Supply) Harvested() units.Joules { return s.harvested }

// Consumed returns total energy drawn by the load so far.
func (s *Supply) Consumed() units.Joules { return s.consumed }

// SupplyState is a restorable snapshot of a Supply's mutable state. The
// static configuration (capacitance, thresholds, harvester wiring) is not
// captured: a snapshot restores onto a supply built with the same profile.
type SupplyState struct {
	Voltage   units.Volts
	State     PowerState
	Tethered  bool
	Harvested units.Joules
	Consumed  units.Joules
}

// SnapshotState captures the supply's mutable state.
func (s *Supply) SnapshotState() SupplyState {
	return SupplyState{
		Voltage:   s.Cap.Voltage(),
		State:     s.state,
		Tethered:  s.tethered,
		Harvested: s.harvested,
		Consumed:  s.consumed,
	}
}

// RestoreState applies a captured state.
func (s *Supply) RestoreState(st SupplyState) {
	s.Cap.SetVoltage(st.Voltage)
	s.state = st.State
	s.tethered = st.Tethered
	s.harvested = st.Harvested
	s.consumed = st.Consumed
}

// Step advances the supply by dt with the load drawing loadCurrent (only
// meaningful when PowerOn). It returns the new power state. The caller (the
// device) is responsible for reacting to a transition to PowerOff by
// resetting the MCU.
func (s *Supply) Step(loadCurrent units.Amps, dt units.Seconds) PowerState {
	if s.tethered {
		// External supply serves the load; the capacitor is isolated but
		// the regulator's comparator still sees the held rail.
		switch s.state {
		case PowerOff:
			if s.Cap.Voltage() >= s.VTurnOn {
				s.state = PowerOn
			}
		case PowerOn:
			if s.Cap.Voltage() < s.VBrownOut {
				s.state = PowerOff
			}
		}
		return s.state
	}
	v0 := s.Cap.Voltage()
	// The RF front end, which every WISP rig and fleet tag uses, is called
	// directly rather than through the interface; Harvester is a public
	// field, so its type is checked on every step.
	var ih units.Amps
	if rf, ok := s.Harvester.(*RFHarvester); ok {
		ih = rf.Current(v0)
	} else {
		ih = s.Harvester.Current(v0)
	}
	// The caller passes the MCU load only while the regulator has it
	// powered; while off, loadCurrent is just attached-tool leakage —
	// which drains (or feeds) the store regardless of power state.
	net := ih - loadCurrent
	s.Cap.ApplyCurrent(net, dt)
	v1 := s.Cap.Voltage()

	// Energy bookkeeping (at the average voltage over the step).
	vAvg := (float64(v0) + float64(v1)) / 2
	s.harvested += units.Joules(float64(ih) * vAvg * float64(dt))
	s.consumed += units.Joules(float64(loadCurrent) * vAvg * float64(dt))

	switch s.state {
	case PowerOff:
		if v1 >= s.VTurnOn {
			s.state = PowerOn
		}
	case PowerOn:
		if v1 < s.VBrownOut {
			s.state = PowerOff
		}
	}
	return s.state
}

// ChargeJumpToOn analytically advances a no-load charging phase straight to
// the turn-on crossing: the capacitor is set to VTurnOn, the elapsed time
// from the harvester's closed-form RC solve is returned, and the supply
// switches to PowerOn. It declines — returning (0, false) with no state
// change — when no closed form applies (stochastic or non-analytic
// harvester), when the target is unreachable, or when the crossing would
// take longer than maxDt.
func (s *Supply) ChargeJumpToOn(maxDt units.Seconds) (units.Seconds, bool) {
	if s.tethered || s.state != PowerOff || maxDt <= 0 {
		return 0, false
	}
	ac, ok := s.Harvester.(AnalyticCharger)
	if !ok || s.VTurnOn > s.Cap.VMax {
		return 0, false
	}
	v0 := s.Cap.Voltage()
	if v0 >= s.VTurnOn {
		s.state = PowerOn
		return 0, true
	}
	dt, ok := ac.ChargeTime(s.Cap.C, v0, s.VTurnOn)
	if !ok || dt <= 0 || dt > maxDt {
		return 0, false
	}
	s.Cap.SetVoltage(s.VTurnOn)
	s.harvested += s.Cap.EnergyBetween(v0, s.VTurnOn)
	s.state = PowerOn
	return dt, true
}

// ChargeUntilOn advances the supply with no load until the MCU turns on,
// returning the elapsed time. Harvesters with a closed-form charge curve
// jump straight to the turn-on crossing; others integrate in dt steps. It
// fails if the harvester cannot reach the turn-on threshold within maxTime.
func (s *Supply) ChargeUntilOn(dt, maxTime units.Seconds) (units.Seconds, error) {
	if elapsed, ok := s.ChargeJumpToOn(maxTime); ok {
		return elapsed, nil
	}
	var elapsed units.Seconds
	for elapsed < maxTime {
		if s.Step(0, dt) == PowerOn {
			return elapsed + dt, nil
		}
		elapsed += dt
	}
	return elapsed, fmt.Errorf("energy: harvester %q cannot reach turn-on %s within %s (stalled at %s)",
		s.Harvester.Name(), s.VTurnOn, maxTime, s.Cap.Voltage())
}
