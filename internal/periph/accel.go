// Package periph provides the peripherals attached to the target's buses:
// the I2C accelerometer used by the activity-recognition application, and a
// temperature sensor. Sensor readings are synthetic but statistically
// shaped so a classifier has something real to classify.
package periph

import (
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/units"
)

// Accelerometer register map (ADXL-flavored).
const (
	RegWhoAmI  = 0x00
	RegStatus  = 0x01
	RegDataX   = 0x02 // X low, X high, then Y, Z pairs
	WhoAmIByte = 0xE5
)

// AccelAddr is the accelerometer's 7-bit I2C address.
const AccelAddr byte = 0x1D

// MotionPhase describes what the simulated wearer is doing.
type MotionPhase int

const (
	// Stationary: gravity plus small sensor noise.
	Stationary MotionPhase = iota
	// Moving: large oscillating acceleration on all axes.
	Moving
)

func (p MotionPhase) String() string {
	if p == Moving {
		return "moving"
	}
	return "stationary"
}

// Accelerometer is a 3-axis I2C accelerometer producing a synthetic motion
// trace: the wearer alternates stationary and moving phases on a schedule,
// with Gaussian sensor noise. Counts are signed 13-bit at 4 mg/LSB, like an
// ADXL345.
type Accelerometer struct {
	clock *sim.Clock
	rng   *sim.RNG

	// PhasePeriod is how long each stationary/moving phase lasts.
	PhasePeriod units.Seconds
	// NoiseLSB is the 1-σ sensor noise in counts.
	NoiseLSB float64
	// MovingAmpLSB is the oscillation amplitude while moving.
	MovingAmpLSB float64

	// Forced, when non-nil, pins the phase (tests use it).
	Forced *MotionPhase

	latched [6]byte // current 3-axis sample, little-endian pairs
	reads   uint64
}

// NewAccelerometer builds the sensor against the device clock.
func NewAccelerometer(clock *sim.Clock, rng *sim.RNG) *Accelerometer {
	return &Accelerometer{
		clock:        clock,
		rng:          rng,
		PhasePeriod:  units.Seconds(2),
		NoiseLSB:     4,
		MovingAmpLSB: 80,
	}
}

// I2CAddr implements device.I2CDevice.
func (a *Accelerometer) I2CAddr() byte { return AccelAddr }

// Phase returns the wearer's current motion phase.
func (a *Accelerometer) Phase() MotionPhase {
	if a.Forced != nil {
		return *a.Forced
	}
	t := float64(a.clock.Time())
	period := float64(a.PhasePeriod)
	if period <= 0 {
		period = 2
	}
	if int(t/period)%2 == 1 {
		return Moving
	}
	return Stationary
}

// sample returns one axis reading in counts.
func (a *Accelerometer) sample(axis int) int16 {
	base := 0.0
	if axis == 2 {
		base = 250 // gravity on Z: 1 g ≈ 250 LSB at 4 mg/LSB
	}
	v := base + a.rng.Gaussian(0, a.NoiseLSB)
	if a.Phase() == Moving {
		// Oscillation with per-sample randomized phase: the classifier
		// keys on variance, not waveform shape.
		v += a.MovingAmpLSB * (2*a.rng.Float64() - 1)
	}
	if v > 4095 {
		v = 4095
	}
	if v < -4096 {
		v = -4096
	}
	return int16(v)
}

// ReadReg implements device.I2CDevice. Reading the first data register
// latches a fresh 3-axis sample; subsequent registers return its bytes.
func (a *Accelerometer) ReadReg(reg byte) byte {
	switch {
	case reg == RegWhoAmI:
		return WhoAmIByte
	case reg == RegStatus:
		return 0x80 // data ready
	case reg >= RegDataX && reg < RegDataX+6:
		idx := int(reg - RegDataX)
		if idx == 0 {
			a.latch()
		}
		return a.latched[idx]
	}
	return 0
}

// WriteReg implements device.I2CDevice (configuration writes are accepted
// and ignored — the simulated part is always in measure mode).
func (a *Accelerometer) WriteReg(reg byte, val byte) {}

// Reads returns the number of 3-axis samples latched.
func (a *Accelerometer) Reads() uint64 { return a.reads }

// I2CState implements device.I2CStateful: the noise stream, the latched
// sample and the read count.
func (a *Accelerometer) I2CState(st *device.I2CState) {
	a.rng.SnapshotInto(&st.RNG)
	st.Latched = append(st.Latched[:0], a.latched[:]...)
	st.Reads = a.reads
}

// RestoreI2CState implements device.I2CStateful.
func (a *Accelerometer) RestoreI2CState(s device.I2CState) {
	a.rng.RestoreState(s.RNG)
	copy(a.latched[:], s.Latched)
	a.reads = s.Reads
}

// latch captures a fresh 3-axis sample into the data registers.
func (a *Accelerometer) latch() {
	a.reads++
	for axis := 0; axis < 3; axis++ {
		v := uint16(a.sample(axis))
		a.latched[2*axis] = byte(v)
		a.latched[2*axis+1] = byte(v >> 8)
	}
}

// TempSensor is a minimal I2C temperature sensor (slow drift around 23 °C).
type TempSensor struct {
	clock *sim.Clock
	rng   *sim.RNG
}

// NewTempSensor builds the sensor.
func NewTempSensor(clock *sim.Clock, rng *sim.RNG) *TempSensor {
	return &TempSensor{clock: clock, rng: rng}
}

// TempAddr is the temperature sensor's I2C address.
const TempAddr byte = 0x48

// I2CAddr implements device.I2CDevice.
func (t *TempSensor) I2CAddr() byte { return TempAddr }

// ReadReg implements device.I2CDevice: register 0 returns degrees C as a
// byte with slow sinusoid-free drift (deterministic in the clock).
func (t *TempSensor) ReadReg(reg byte) byte {
	if reg != 0 {
		return 0
	}
	base := 23.0 + float64(int(t.clock.Time())%7)/10 + t.rng.Gaussian(0, 0.2)
	return byte(base)
}

// WriteReg implements device.I2CDevice.
func (t *TempSensor) WriteReg(reg byte, val byte) {}

// I2CState implements device.I2CStateful: the noise stream.
func (t *TempSensor) I2CState(st *device.I2CState) { t.rng.SnapshotInto(&st.RNG) }

// RestoreI2CState implements device.I2CStateful.
func (t *TempSensor) RestoreI2CState(s device.I2CState) { t.rng.RestoreState(s.RNG) }
