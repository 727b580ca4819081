// Package core assembles the pieces of the EDB reproduction into a ready
// debugging rig: a simulated energy-harvesting target (internal/device)
// powered by a harvester (internal/energy), with the Energy-interference-
// free Debugger attached (internal/edb), a host console (internal/console),
// and optionally an RFID reader closing the energy/communication loop
// (internal/rfid).
//
// It is the front door for examples and downstream users:
//
//	rig, err := core.NewRig(&apps.LinkedList{WithAssert: true})
//	...
//	res, err := rig.Run(10 * core.Second)
//
// Lower-level control remains available through the Rig's fields.
package core

import (
	"fmt"

	"repro/internal/console"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/rfid"
	"repro/internal/units"
)

// Second re-exports the simulated-time unit so callers can write
// rig.Run(10 * core.Second) without importing internal/units.
const Second units.Seconds = 1

// Millisecond is one thousandth of a simulated second.
const Millisecond units.Seconds = 1e-3

// Rig is an assembled debugging setup.
type Rig struct {
	Device  *device.Device
	EDB     *edb.EDB
	Console *console.Console
	Runner  *device.Runner
	Reader  *rfid.Reader // nil unless WithReader was used

	program device.Program
}

// Option configures rig assembly.
type Option func(*config)

type config struct {
	seed      int64
	harvester energy.Harvester
	supply    *energy.Supply
	noEDB     bool
	reader    *rfid.ReaderConfig
}

// WithSeed sets the deterministic seed for every stochastic model in the
// rig (default 1).
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithHarvester replaces the default RF harvester (30 dBm reader at 1 m).
func WithHarvester(h energy.Harvester) Option {
	return func(c *config) { c.harvester = h }
}

// WithSupply replaces the whole power supply — a different storage
// capacitor and thresholds for non-WISP device profiles (EDB ports to any
// capacitor-buffered harvesting device, §4). The supply's harvester wins
// over WithHarvester.
func WithSupply(s *energy.Supply) Option {
	return func(c *config) { c.supply = s }
}

// WithoutEDB assembles the target alone — the "run without a debugger and
// observe the failure but gain no insight" half of the paper's dilemma.
func WithoutEDB() Option { return func(c *config) { c.noEDB = true } }

// WithReader attaches an RFID reader model whose carrier is the energy
// source; the returned rig's Reader field is set and started by Run.
func WithReader(rc rfid.ReaderConfig) Option {
	return func(c *config) { c.reader = &rc }
}

// NewRig assembles a rig around the given firmware program and flashes it.
// The EDB board (when present) attaches before flashing so the target-side
// libEDB registers its debug service.
func NewRig(p device.Program, opts ...Option) (*Rig, error) {
	cfg := config{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}

	rig := &Rig{program: p}

	if cfg.reader != nil {
		reader, harv := rfid.NewReader(*cfg.reader)
		rig.Reader = reader
		if cfg.harvester == nil {
			cfg.harvester = harv
		}
	}
	if cfg.harvester == nil {
		cfg.harvester = energy.NewRFHarvester()
	}

	if cfg.supply != nil {
		dcfg := device.DefaultConfig()
		dcfg.Seed = cfg.seed
		rig.Device = device.New(dcfg, cfg.supply)
	} else {
		rig.Device = device.NewWISP5(cfg.harvester, cfg.seed)
	}

	if !cfg.noEDB {
		rig.EDB = edb.New(edb.DefaultConfig())
		rig.EDB.Attach(rig.Device)
		rig.EDB.SetRFDecoder(rfid.FrameName)
		rig.Console = console.New(rig.EDB)
	}

	rig.Runner = device.NewRunner(rig.Device, p)
	if err := rig.Runner.Flash(); err != nil {
		return nil, fmt.Errorf("core: flashing %s: %w", p.Name(), err)
	}
	if rig.Reader != nil {
		rig.Reader.Attach(rig.Device)
	}
	return rig, nil
}

// ExploreTarget builds the bare machine the exhaustive intermittence
// checker (internal/explore) forks: the program flashed onto a WISP-class
// device with no EDB attached — the explorer installs its own debugger
// probe — and every stochastic model seeded deterministically. It is the
// canonical explore.Config.NewRig body.
func ExploreTarget(p device.Program, seed int64) (*device.Device, device.Program, error) {
	rig, err := NewRig(p, WithoutEDB(), WithSeed(seed))
	if err != nil {
		return nil, nil, err
	}
	return rig.Device, p, nil
}

// Run executes the program intermittently for the given simulated duration,
// starting the reader (if any) for the run's extent.
func (r *Rig) Run(d units.Seconds) (device.RunResult, error) {
	if r.Reader != nil {
		r.Reader.Start()
		defer r.Reader.Stop()
	}
	return r.Runner.RunFor(d)
}

// Exec runs one console command (convenience passthrough; returns an error
// when the rig was assembled WithoutEDB).
func (r *Rig) Exec(cmd string) (string, error) {
	if r.Console == nil {
		return "", fmt.Errorf("core: no debugger attached")
	}
	return r.Console.Exec(cmd)
}
