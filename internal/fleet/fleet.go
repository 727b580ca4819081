// Package fleet is the batched simulation kernel: it steps an array of
// intermittently-powered tags through shared time slices instead of running
// one event loop per rig, which is what makes Table-4-style studies at
// 10k–100k devices practical in a single process.
//
// Equivalence by construction. Each tag is a device.Runner on the same
// Device, Supply and program objects a sequential core.Rig run would use.
// The fleet only decides when each runner steps: Runner.Step pauses a run
// between the exact env calls a sequential run performs, so a batched run
// of N tags produces byte-identical per-tag outcomes to N sequential Rig
// runs — the property fleet_test.go checks under -race at multiple worker
// counts.
//
// Layout. Beside the runners, the scheduler keeps struct-of-arrays
// mirrors of what the slice loop and the contention barrier read: each
// tag's clock at its last pause, whether its run has ended and whether it
// is charging. The slice loop scans those arrays — skipping tags that
// already sit at or beyond the boundary without touching their device
// objects — and only enters a tag's Device/CPU working set when the tag
// actually has cycles to run. Cross-device effects (reader contention) are
// computed sequentially from the arrays at each slice barrier, in
// tag-index order, so they are deterministic at any worker count.
//
// Sharding. Per-slice work fans out over internal/parallel with one item
// per tag; each tag's randomness derives from parallel.ShardSeed(seed, i),
// so results are bit-for-bit identical at any worker count.
package fleet

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/units"
)

// ContentionConfig models an RFID reader time-sharing its carrier: with
// more than Slots tags simultaneously charging, each receives
// Slots/charging of the solo received power. It requires per-tag
// RFHarvester sources and is recomputed at every slice barrier from the
// previous slice's power states, sequentially in tag-index order.
//
// Contention is a fleet-level effect with no sequential-rig equivalent, so
// the golden equivalence property only holds with Slots == 0 (disabled).
type ContentionConfig struct {
	// Slots is the number of tags the reader can energize at full power;
	// 0 disables contention.
	Slots int
}

// Config parameterizes a fleet run.
type Config struct {
	// Tags is the number of devices to simulate.
	Tags int
	// Duration is the simulated run length per tag.
	Duration units.Seconds
	// Slice is the batching granularity: all live tags reach each slice
	// boundary before cross-device effects are evaluated. Defaults to
	// 50 ms. Smaller slices tighten contention feedback; larger slices
	// amortize scheduling overhead.
	Slice units.Seconds
	// Seed is the base seed; tag i derives parallel.ShardSeed(Seed, i).
	Seed int64
	// Quantum, when non-zero, overrides each device's active integration
	// quantum (device.DefaultConfig's 64 cycles). Larger quanta trade
	// supply-integration resolution for speed; at 47 µF even 512 cycles
	// (128 µs) moves the capacitor a few millivolts per step.
	Quantum sim.Cycles
	// SleepQuantum, when non-zero, is forwarded to each device's config:
	// coarser energy integration during low-power waits.
	SleepQuantum sim.Cycles
	// DeferSupply forwards device.Config.DeferSupply: batch sub-quantum
	// supply integration across env calls (monitor/probe-free tags only).
	DeferSupply bool
	// NewProgram builds tag i's firmware (required). Each tag needs its
	// own instance.
	NewProgram func(i int) device.Program
	// NewHarvester builds tag i's energy source; nil uses DefaultHarvester.
	NewHarvester func(i int, seed int64) energy.Harvester
	// Contention optionally couples tags through the reader's carrier.
	Contention ContentionConfig
}

// DefaultHarvester is the fleet's default per-tag energy source: the
// paper's 30 dBm / 915 MHz RF setup with fading noise disabled — noise-free
// supplies have closed-form charge curves, so off phases fast-forward
// analytically — and tag i placed at a deterministic distance in
// [0.6 m, 1.4 m), spreading the fleet across the harvesting range the way a
// real deployment spreads tags across a room.
func DefaultHarvester(i int, seed int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Noise = nil
	h.NoiseFrac = 0
	h.Distance = units.Meters(0.6 + 0.8*float64(i%97)/97.0)
	return h
}

// TagResult is one tag's outcome: exactly what a sequential
// Runner.RunFor(duration) on the same device would have returned.
type TagResult struct {
	Result device.RunResult
	// Err is non-nil if the tag's run aborted (e.g. ErrNeverPowered).
	Err error
}

// Result summarizes a fleet run.
type Result struct {
	Tags []TagResult
	// Devices exposes each tag's device so callers can read
	// application-level statistics out of simulated FRAM afterwards.
	Devices []*device.Device
	// AggregateSimSeconds is the total simulated time executed across the
	// fleet (the numerator of the sim-seconds-per-wall-second metric).
	AggregateSimSeconds float64
	// Completed, Reboots, Faults are fleet-wide tallies.
	Completed int
	Reboots   int
	Faults    int
	// BytesPerTag is the approximate heap footprint per tag, measured
	// after construction.
	BytesPerTag float64
}

// fleetState is the batched kernel: one runner per tag plus the
// struct-of-arrays mirrors the slice loop scans.
type fleetState struct {
	cfg      Config
	deadline sim.Cycles

	runs  []*device.Runner
	harvs []*energy.RFHarvester // nil unless contention applies

	// Mirrors of each runner after its last Step, indexed by tag.
	now      []sim.Cycles
	done     []bool
	charging []bool
}

// Run executes the fleet and returns per-tag outcomes.
func Run(cfg Config) (*Result, error) {
	if cfg.Tags <= 0 {
		return nil, fmt.Errorf("fleet: Tags must be positive")
	}
	if cfg.NewProgram == nil {
		return nil, fmt.Errorf("fleet: NewProgram is required")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("fleet: Duration must be positive")
	}
	if cfg.Slice <= 0 {
		cfg.Slice = units.MilliSeconds(50)
	}
	if cfg.NewHarvester == nil {
		cfg.NewHarvester = DefaultHarvester
	}

	s, memPerTag, err := build(cfg)
	if err != nil {
		return nil, err
	}
	s.run()
	res := s.collect()
	res.BytesPerTag = memPerTag
	return res, nil
}

// build constructs every tag and measures the heap cost per tag.
func build(cfg Config) (*fleetState, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	n := cfg.Tags
	s := &fleetState{
		cfg:      cfg,
		runs:     make([]*device.Runner, n),
		harvs:    make([]*energy.RFHarvester, n),
		now:      make([]sim.Cycles, n),
		done:     make([]bool, n),
		charging: make([]bool, n),
	}

	// Construction is parallel too: each tag's assembly (device, flash,
	// classifier training) is independent and seeded by ShardSeed.
	err := parallel.ForEach(n, func(i int) error {
		seed := parallel.ShardSeed(cfg.Seed, i)
		h := cfg.NewHarvester(i, seed)
		// Mirror device.NewWISP5: WISP 5 supply, harvester reseeded from
		// the tag's seed, plus the fleet's sleep-quantum override.
		dcfg := device.DefaultConfig()
		dcfg.Seed = seed
		if cfg.Quantum > 0 {
			dcfg.Quantum = cfg.Quantum
		}
		dcfg.SleepQuantum = cfg.SleepQuantum
		dcfg.DeferSupply = cfg.DeferSupply
		if r, ok := h.(energy.Reseeder); ok {
			r.Reseed(seed)
		}
		r := device.NewRunner(device.New(dcfg, energy.WISP5Supply(h)), cfg.NewProgram(i))
		if err := r.Flash(); err != nil {
			return fmt.Errorf("fleet: flashing tag %d: %w", i, err)
		}
		s.runs[i] = r
		if rf, ok := h.(*energy.RFHarvester); ok {
			s.harvs[i] = rf
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	s.deadline = s.runs[0].D.Clock.ToCycles(cfg.Duration)
	for i, r := range s.runs {
		r.D.SetDeadline(s.deadline)
		r.Start()
		s.charging[i] = r.Charging()
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	perTag := float64(0)
	if m1.HeapAlloc > m0.HeapAlloc {
		perTag = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n)
	}
	return s, perTag, nil
}

// run is the time-sliced outer loop: advance every live tag to the next
// shared boundary, then apply cross-device effects, until all tags reach a
// terminal state.
func (s *fleetState) run() {
	slice := s.runs[0].D.Clock.ToCycles(s.cfg.Slice)
	if slice == 0 {
		slice = 1
	}
	s.applyContention()

	for sliceEnd := slice; slices.Contains(s.done, false); sliceEnd += slice {
		stopAt := sliceEnd
		if sliceEnd >= s.deadline {
			// Final pass: the shared deadline now bounds every tag, so
			// run each to its terminal outcome exactly as an unsliced
			// Runner would.
			stopAt = device.Never
		}
		_ = parallel.ForEach(s.cfg.Tags, func(i int) error {
			if !s.done[i] && s.now[i] < stopAt {
				r := s.runs[i]
				s.done[i] = r.Step(stopAt)
				s.now[i] = r.D.Clock.Now()
				s.charging[i] = r.Charging()
			}
			return nil
		})
		s.applyContention()
	}
	for _, r := range s.runs {
		r.D.ClearDeadline()
	}
}

// applyContention recomputes each tag's share of the reader's carrier from
// the barrier-consistent charging flags: deterministic, sequential, in
// tag-index order.
func (s *fleetState) applyContention() {
	slots := s.cfg.Contention.Slots
	if slots <= 0 {
		return
	}
	charging := 0
	for _, c := range s.charging {
		if c {
			charging++
		}
	}
	scale := 1.0
	if charging > slots {
		scale = float64(slots) / float64(charging)
	}
	for _, h := range s.harvs {
		if h != nil {
			h.PowerScale = scale
		}
	}
}

// collect assembles each runner's result (origin 0: fresh devices).
func (s *fleetState) collect() *Result {
	n := s.cfg.Tags
	res := &Result{Tags: make([]TagResult, n), Devices: make([]*device.Device, n)}
	for i, r := range s.runs {
		rr, err := r.Result(0)
		res.Tags[i] = TagResult{Result: rr, Err: err}
		res.Devices[i] = r.D
		res.AggregateSimSeconds += float64(rr.SimTime)
		if rr.Completed {
			res.Completed++
		}
		res.Reboots += rr.Reboots
		res.Faults += rr.Faults
	}
	return res
}
