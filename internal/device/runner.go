package device

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/units"
)

// Program is a firmware image. Flash runs once when the program is loaded
// onto the device (laying out FRAM data structures costs no runtime
// energy, like flashing a real board); Main is the reset-vector entry
// point, re-entered after every reboot with all volatile state cleared.
type Program interface {
	// Name identifies the program in traces and results.
	Name() string
	// Flash lays out the program's memory image on the device.
	Flash(d *Device) error
	// Main executes until power fails (a *PowerFailure panic unwinds it),
	// a memory fault wedges the MCU, or it returns (app complete).
	Main(env *Env)
}

// Sliceable is implemented by programs whose execution can pause at a cycle
// limit and resume later with an identical env-call sequence (isa.Program).
// The Runner drives them through ResetCPU and StepUntil instead of Main.
// Other programs run Main in whole bursts: a power failure, a fault or the
// deadline ends each one, which the intermittent execution model keeps
// short.
type Sliceable interface {
	// ResetCPU performs the power-on reset Main would start with.
	ResetCPU()
	// StepUntil advances until the program halts (true) or simulated time
	// reaches limit (false, resumable).
	StepUntil(env *Env, limit sim.Cycles) bool
}

// RunResult summarizes an intermittent execution.
type RunResult struct {
	// Completed is true if Main returned normally at least once.
	Completed bool
	// Reboots counts power-failure restarts.
	Reboots int
	// Faults counts memory-fault wedges.
	Faults int
	// Halted is non-empty if a debugger decision stopped the run.
	Halted string
	// DeadlineHit is true if the simulation deadline expired mid-run.
	DeadlineHit bool
	// SimTime is the total simulated time elapsed.
	SimTime units.Seconds
	// Stats is the device's accumulated statistics.
	Stats Stats
}

func (r RunResult) String() string {
	return fmt.Sprintf("run: completed=%v reboots=%d faults=%d halted=%q deadline=%v t=%s",
		r.Completed, r.Reboots, r.Faults, r.Halted, r.DeadlineHit, r.SimTime)
}

// ErrNeverPowered is returned when the harvester cannot bring the device to
// its turn-on threshold.
var ErrNeverPowered = errors.New("device: harvester never reached turn-on threshold")

// DefaultMaxChargeTime is the charging-phase bound NewRunner sets.
const DefaultMaxChargeTime = units.Seconds(10)

// Never is a cycle no run reaches: Step(Never) runs to a terminal outcome.
const Never = ^sim.Cycles(0)

// Outcome is how a stretch of execution ended: by itself, or by one of the
// terminal device panics.
type Outcome uint8

const (
	// OutReturned: the code ran to its end.
	OutReturned Outcome = iota
	// OutPaused: the code stopped at a slice boundary and can resume.
	OutPaused
	// OutPowerFailure: a *PowerFailure unwound it.
	OutPowerFailure
	// OutMemoryFault: a *MemoryFault unwound it.
	OutMemoryFault
	// OutHalted: a *Halted unwound it.
	OutHalted
	// OutDeadline: a *DeadlineReached unwound it.
	OutDeadline
)

// Catch runs fn and classifies how it ended: fn's own outcome if it
// returned, or the outcome of the terminal device panic that unwound it,
// with the *Halted value for OutHalted. Any other panic is a bug in the
// simulator or the firmware harness and propagates.
func Catch(fn func() Outcome) (o Outcome, h *Halted) {
	defer func() {
		if p := recover(); p != nil {
			switch p := p.(type) {
			case *PowerFailure:
				o = OutPowerFailure
			case *MemoryFault:
				o = OutMemoryFault
			case *Halted:
				o, h = OutHalted, p
			case *DeadlineReached:
				o = OutDeadline
			default:
				panic(p)
			}
		}
	}()
	return fn(), nil
}

// Runner phases: one charge → run → brown-out → reboot cycle.
const (
	phaseChargeEnter = iota // powered already, or stamp the charge limit
	phaseCharging           // inside IdleChargeUntil
	phaseRunEnter           // power-on reset pending
	phaseRunning            // executing (mid-StepUntil for Sliceable programs)
	phaseBurning            // wedged MCU burning until brown-out
	phaseDone
)

// Runner drives a Program through the intermittent execution model:
// charge → run → brown-out → reboot → charge → …, until a deadline or a
// terminal condition. It is a resumable machine: Start arms a run, Step
// advances it to a cycle boundary or to its end, and Result reports it.
// RunUntil does all three in one call; the fleet kernel interleaves Step
// calls across many runners.
type Runner struct {
	D *Device
	P Program

	// MaxChargeTime bounds one charging phase; if the harvester cannot
	// reach turn-on within it, the run aborts with ErrNeverPowered.
	MaxChargeTime units.Seconds

	// OnReboot, if set, is called after each power-failure reboot.
	OnReboot func(n int)

	// OnPowerOn, if set, is called each time the supply has turned the
	// device on and the program is about to start from its reset vector.
	// Nothing volatile has survived the power-off before it, so the device
	// is at a complete state cut: a snapshot taken here (see Snapshot),
	// with the run's Tally, resumes exactly.
	OnPowerOn func()

	env   Env
	slice Sliceable // P, if it can pause mid-run; nil for burst programs

	phase       uint8
	chargeLimit sim.Cycles // absolute end of the current charging phase

	completed, deadlineHit bool
	reboots, faults        int
	halted                 string
	err                    error

	resume Tally // the tallies the next Start continues from
}

// Tally is a run's count of power-failure reboots and memory faults.
type Tally struct{ Reboots, Faults int }

// NewRunner returns a runner for program p on device d.
func NewRunner(d *Device, p Program) *Runner {
	r := &Runner{D: d, P: p, MaxChargeTime: DefaultMaxChargeTime}
	r.slice, _ = p.(Sliceable)
	return r
}

// Flash loads the program image onto the device.
func (r *Runner) Flash() error { return r.P.Flash(r.D) }

// RunFor executes the program intermittently for the given simulated
// duration. The program must already be flashed.
func (r *Runner) RunFor(d units.Seconds) (RunResult, error) {
	now := r.D.Clock.Now()
	return r.RunUntil(now+r.D.Clock.ToCycles(d), now)
}

// RunUntil is RunFor against an absolute deadline cycle, with SimTime
// reported relative to origin. It exists for warm-started rigs: a rig
// restored from a snapshot taken at a power-on passes the deadline and
// origin a cold run would have used (origin 0), so the deadline cycle and
// the reported times — and therefore every output byte — match the cold
// run exactly instead of being skewed by the snapshot point.
func (r *Runner) RunUntil(deadline, origin sim.Cycles) (RunResult, error) {
	r.D.SetDeadline(deadline)
	defer r.D.ClearDeadline()
	r.Start()
	r.Step(Never)
	return r.Result(origin)
}

// Start arms a run at charge entry with zeroed tallies, or with the
// tallies passed to Resume. The caller sets the device deadline that ends
// it.
func (r *Runner) Start() {
	r.env.D = r.D
	r.phase = phaseChargeEnter
	r.completed, r.deadlineHit = false, false
	r.reboots, r.faults = r.resume.Reboots, r.resume.Faults
	r.resume = Tally{}
	r.halted, r.err = "", nil
}

// Tally returns the current run's reboots and faults so far.
func (r *Runner) Tally() Tally { return Tally{r.reboots, r.faults} }

// Resume makes the next Start continue from t instead of zero. A device
// restored from a snapshot taken at a power-on (OnPowerOn) passes the
// run's tallies there, so the resumed run reports what the run the
// snapshot came from would.
func (r *Runner) Resume(t Tally) { r.resume = t }

// Step advances the run until the clock reaches stopAt or the run ends,
// and reports whether it has ended. It pauses only between the env calls
// an unpaused run makes, so any sequence of Step calls produces the same
// run as Step(Never). A burst program's Main and an analytic charge jump
// may carry the clock past stopAt, exactly as they would unpaused.
func (r *Runner) Step(stopAt sim.Cycles) (done bool) {
	for r.phase != phaseDone && r.D.Clock.Now() < stopAt {
		o, h := Catch(func() Outcome { return r.advance(stopAt) })
		switch o {
		case OutPaused:
			return false
		case OutPowerFailure:
			r.reboots++
			r.D.Reboot()
			if r.OnReboot != nil {
				r.OnReboot(r.reboots)
			}
			r.phase = phaseChargeEnter
		case OutMemoryFault:
			// The MCU is wedged executing garbage: it burns energy at the
			// active rate until brown-out, then reboots like any power
			// failure. If the corrupt state persists in FRAM, the next
			// cycle wedges again — forever, as in §5.3.1.
			r.faults++
			r.phase = phaseBurning
		case OutHalted:
			r.halted = h.Reason
			r.phase = phaseDone
		case OutDeadline:
			r.deadlineHit = true
			r.phase = phaseDone
		}
	}
	return r.phase == phaseDone
}

// advance runs the current phase until it ends or pauses at stopAt.
func (r *Runner) advance(stopAt sim.Cycles) Outcome {
	d := r.D
	switch r.phase {
	case phaseChargeEnter:
		if d.Supply.State() == energy.PowerOn && d.Supply.Voltage() >= d.Supply.VBrownOut {
			r.phase = phaseRunEnter
			break
		}
		// Stamped once per phase: resuming across pauses keeps the limit.
		r.chargeLimit = d.Clock.Now() + d.Clock.ToCycles(r.MaxChargeTime)
		r.phase = phaseCharging
	case phaseCharging:
		powered, exhausted := d.IdleChargeUntil(r.chargeLimit, stopAt)
		switch {
		case powered:
			r.phase = phaseRunEnter
		case exhausted:
			r.err = ErrNeverPowered
			r.phase = phaseDone
		default:
			return OutPaused
		}
	case phaseRunEnter:
		if r.OnPowerOn != nil {
			r.OnPowerOn()
		}
		if r.slice != nil {
			r.slice.ResetCPU()
		}
		r.phase = phaseRunning
	case phaseRunning:
		if r.slice == nil {
			r.P.Main(&r.env)
		} else if !r.slice.StepUntil(&r.env, stopAt) {
			return OutPaused
		}
		r.completed = true
		r.phase = phaseDone
	case phaseBurning:
		for d.Clock.Now() < stopAt {
			r.env.tick(1024)
		}
		return OutPaused
	}
	return OutReturned
}

// Charging reports whether the run is waiting for power-on.
func (r *Runner) Charging() bool { return r.phase <= phaseCharging }

// Result reports the run so far, with SimTime measured from origin, and
// ErrNeverPowered if a charging phase ran out.
func (r *Runner) Result(origin sim.Cycles) (RunResult, error) {
	return RunResult{
		Completed:   r.completed,
		Reboots:     r.reboots,
		Faults:      r.faults,
		Halted:      r.halted,
		DeadlineHit: r.deadlineHit,
		SimTime:     units.Seconds(float64(r.D.Clock.Time()) - float64(r.D.Clock.ToSeconds(origin))),
		Stats:       r.D.Stats(),
	}, r.err
}
