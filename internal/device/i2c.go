package device

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// I2CDevice is a peripheral on the I2C bus (e.g. the accelerometer used by
// the activity-recognition application).
type I2CDevice interface {
	// I2CAddr returns the device's 7-bit address.
	I2CAddr() byte
	// ReadReg returns the value of a register.
	ReadReg(reg byte) byte
	// WriteReg stores a value into a register.
	WriteReg(reg byte, val byte)
}

// I2CState is what an I2C peripheral keeps of its own, outside device
// memory: a split RNG stream, latched register bytes and a read count.
// Device snapshots carry it for each attached I2CStateful peripheral.
type I2CState struct {
	RNG     sim.RNGState
	Latched []byte
	Reads   uint64
}

// I2CStateful is an I2C peripheral whose state a snapshot must carry.
// I2CState captures it into *st, reusing the storage st holds from an
// earlier capture (see sim.RNG.SnapshotInto).
type I2CStateful interface {
	I2CState(st *I2CState)
	RestoreI2CState(I2CState)
}

// I2CTransfer describes one completed bus transaction, for EDB's passive
// I/O monitoring (§4.1.2: "Our prototype can monitor GPIO, UART, I2C...").
type I2CTransfer struct {
	At    sim.Cycles
	Addr  byte
	Reg   byte
	Data  []byte
	Write bool
}

func (t I2CTransfer) String() string {
	dir := "rd"
	if t.Write {
		dir = "wr"
	}
	return fmt.Sprintf("i2c %s addr=%#02x reg=%#02x len=%d", dir, t.Addr, t.Reg, len(t.Data))
}

// I2CBus models the target's I2C master. Transactions cost bus time at the
// configured clock rate and draw peripheral current.
type I2CBus struct {
	d *Device

	// ClockHz is the bus rate (default 400 kHz fast mode).
	ClockHz int
	// BusCurrent is the extra load while a transaction is in flight.
	BusCurrent units.Amps

	devices map[byte]I2CDevice
	subs    []func(I2CTransfer)
}

func newI2CBus(d *Device) *I2CBus {
	return &I2CBus{
		d:          d,
		ClockHz:    400_000,
		BusCurrent: units.MicroAmps(250),
		devices:    make(map[byte]I2CDevice),
	}
}

// Attach connects a peripheral to the bus.
func (b *I2CBus) Attach(dev I2CDevice) { b.devices[dev.I2CAddr()] = dev }

// Subscribe registers a transaction listener (EDB's I2C monitor). It
// returns a remove function.
func (b *I2CBus) Subscribe(fn func(I2CTransfer)) func() {
	b.subs = append(b.subs, fn)
	idx := len(b.subs) - 1
	return func() { b.subs[idx] = nil }
}

// byteCycles returns cycles for one byte + ack (9 bit times).
func (b *I2CBus) byteCycles() sim.Cycles {
	return b.d.Clock.ToCycles(units.Seconds(9.0 / float64(b.ClockHz)))
}

// ReadRegs performs a register read transaction: START, addr+W, reg,
// repeated START, addr+R, n data bytes, STOP.
func (b *I2CBus) ReadRegs(env *Env, addr, reg byte, n int) ([]byte, error) {
	dev, ok := b.devices[addr]
	if !ok {
		return nil, fmt.Errorf("i2c: no device at %#02x", addr)
	}
	b.d.SetLoad("i2c", b.BusCurrent)
	defer b.d.SetLoad("i2c", 0)
	env.tick(b.byteCycles() * sim.Cycles(3+n)) // addr, reg, addr, data...
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = dev.ReadReg(reg + byte(i))
	}
	b.notify(I2CTransfer{At: b.d.Clock.Now(), Addr: addr, Reg: reg, Data: out})
	return out, nil
}

// WriteRegs performs a register write transaction.
func (b *I2CBus) WriteRegs(env *Env, addr, reg byte, data []byte) error {
	dev, ok := b.devices[addr]
	if !ok {
		return fmt.Errorf("i2c: no device at %#02x", addr)
	}
	b.d.SetLoad("i2c", b.BusCurrent)
	defer b.d.SetLoad("i2c", 0)
	env.tick(b.byteCycles() * sim.Cycles(2+len(data)))
	for i, v := range data {
		dev.WriteReg(reg+byte(i), v)
	}
	b.notify(I2CTransfer{At: b.d.Clock.Now(), Addr: addr, Reg: reg, Data: append([]byte(nil), data...), Write: true})
	return nil
}

func (b *I2CBus) notify(t I2CTransfer) {
	for _, fn := range b.subs {
		if fn != nil {
			fn(t)
		}
	}
}

func (b *I2CBus) reset() {
	b.d.SetLoad("i2c", 0)
}
