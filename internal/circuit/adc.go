package circuit

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// ADC models a successive-approximation analog-to-digital converter like
// the 12-bit ADC in EDB's MCU (§5.2.2): quantization to Bits of resolution
// over [0, VRef], plus input-referred noise and a fixed per-instance offset
// error. The paper notes the effective resolution is approximately 1 mV,
// which bounds how accurately EDB can save and restore the target's energy
// level (Table 3).
type ADC struct {
	Bits    int
	VRef    units.Volts
	NoiseSD units.Volts // input-referred noise, 1-σ
	offset  units.Volts // per-instance offset error

	rng *sim.RNG
}

// NewADC returns a 12-bit ADC with a 3.0 V reference, ~0.4 mV input noise
// and a sub-LSB instance offset — effective resolution ≈ 1 mV.
func NewADC(rng *sim.RNG) *ADC {
	a := &ADC{
		Bits:    12,
		VRef:    3.0,
		NoiseSD: units.MilliVolts(0.4),
		rng:     rng,
	}
	a.offset = units.Volts(rng.Gaussian(0, float64(units.MilliVolts(0.3))))
	return a
}

// Levels returns the number of quantization levels (2^Bits).
func (a *ADC) Levels() int { return 1 << a.Bits }

// LSB returns the voltage of one least-significant bit.
func (a *ADC) LSB() units.Volts {
	return units.Volts(float64(a.VRef) / float64(a.Levels()))
}

// Sample converts an input voltage to a code.
func (a *ADC) Sample(v units.Volts) uint16 {
	vin := float64(v) + float64(a.offset) + a.rng.Gaussian(0, float64(a.NoiseSD))
	code := int(vin / float64(a.LSB()))
	if code < 0 {
		code = 0
	}
	if code >= a.Levels() {
		code = a.Levels() - 1
	}
	return uint16(code)
}

// CodeToVolts converts an ADC code back to the voltage it represents
// (mid-tread convention).
func (a *ADC) CodeToVolts(code uint16) units.Volts {
	return units.Volts((float64(code) + 0.5) * float64(a.LSB()))
}

// Read samples the input and returns the reconstructed voltage — the value
// EDB's software sees.
func (a *ADC) Read(v units.Volts) units.Volts {
	return a.CodeToVolts(a.Sample(v))
}

// RNGState captures the noise stream position into *st for machine
// snapshots, like sim.RNG.SnapshotInto.
func (a *ADC) RNGState(st *sim.RNGState) { a.rng.SnapshotInto(st) }

// RestoreRNGState repositions the noise stream from a snapshot.
func (a *ADC) RestoreRNGState(st sim.RNGState) { a.rng.RestoreState(st) }

func (a *ADC) String() string {
	return fmt.Sprintf("ADC(%d-bit, VRef=%s, LSB=%s)", a.Bits, a.VRef, a.LSB())
}

// ChargeDischarge models EDB's custom charge/discharge circuit (§4.1.1): a
// GPIO-driven charge path through a low-pass filter and keeper diode, and a
// discharge path through a fixed resistive load. EDB's software runs an
// iterative control loop around these primitives to converge the capacitor
// to a desired voltage.
type ChargeDischarge struct {
	// ChargeCurrent is the current delivered while the charge GPIO is
	// active (set by the filter components and supply rail).
	ChargeCurrent units.Amps
	// DischargeR is the fixed resistive load on the discharge path.
	DischargeR units.Ohms
	// PulseTime is the dwell of one control-loop actuation between ADC
	// readings; it sets the control deadband together with the currents.
	PulseTime units.Seconds
}

// NewChargeDischarge returns the prototype's charge/discharge circuit
// parameters. With a 47 µF target capacitor, one pulse moves the rail tens
// of millivolts — matching the ~54 mV restore discrepancy of Table 3.
func NewChargeDischarge() *ChargeDischarge {
	return &ChargeDischarge{
		ChargeCurrent: units.MilliAmps(5),
		DischargeR:    1000,
		PulseTime:     units.MicroSeconds(500),
	}
}

// ChargePulse applies one charge pulse to a capacitor at voltage v and
// capacitance c, returning the new voltage.
func (cd *ChargeDischarge) ChargePulse(v units.Volts, c units.Farads) units.Volts {
	dv := float64(cd.ChargeCurrent) * float64(cd.PulseTime) / float64(c)
	return v + units.Volts(dv)
}

// DischargePulse applies one discharge pulse through the resistive load,
// returning the new voltage (exponential decay over the pulse).
func (cd *ChargeDischarge) DischargePulse(v units.Volts, c units.Farads) units.Volts {
	// dV/dt = -V/(RC)  =>  V' = V·exp(-dt/RC)
	rc := float64(cd.DischargeR) * float64(c)
	return units.Volts(float64(v) * math.Exp(-float64(cd.PulseTime)/rc))
}
