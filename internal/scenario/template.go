// Warm-start session support: a Template keeps one full-machine snapshot
// of a spec's family, taken at the last power-on before the debugger's
// first entry (or before the deadline, if the debugger never enters). A
// power-failure reboot is a complete state cut, because only non-volatile
// state survives it, and by the next power-on the simulator has dropped
// every volatile leftover too (the interpreter's registers, retired count
// and print line are reset there), so the snapshot holds all the state
// there is (device.Snapshot). A fork skips every charge cycle before the
// entry, writes the console output the cold run had written by then, and
// continues the runner's reboot and fault tallies. Because the snapshot
// restores every stochastic stream and the forked run shares the cold
// run's absolute deadline, a warm session's output is byte-for-byte
// identical to a cold boot of the same spec — the pool is purely a latency
// optimization, never a semantic one. The snapshot is recorded during a
// cold run of the family, so a pool spends no simulation of its own on it.
// A pool only forks templates it recorded itself: templates never cross a
// process boundary, so nothing a peer sends can change what a session
// computes.
package scenario

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/units"
)

// Template is a pre-warmed rig image for one spec family: everything that
// shapes the simulation (app, seed, distance, tracing, …) is fixed;
// per-session fields (duration, script, interactivity) are not.
type Template struct {
	spec  Spec       // defaulted
	clock *sim.Clock // converts session deadlines to cycles
	at    *point     // where every fork starts
}

// point is a place a session can fork from: a snapshot taken at a
// power-on, the console output a cold run has written by then, and the
// runner's tallies there.
type point struct {
	snap   *core.RigSnapshot
	prefix []byte
	tally  device.Tally
}

// recorder finds a template's point during a cold run. At each power-on
// before the first debugger entry it snapshots the rig into the buffers of
// the point it replaces, so a run holds two snapshots however many charge
// cycles it passes. It sits in front of the session's output to keep what
// the console wrote before the entry; a point records how much of that was
// written by then.
type recorder struct {
	rig  *core.Rig
	spec Spec      // defaulted
	w    io.Writer // the session's output
	out  []byte    // what w was written before the entry

	snap, spare *core.RigSnapshot
	n           int // len(out) at snap
	tally       device.Tally

	stopped bool
	done    func(*Template) // called once, when the recording stops
}

// newRecorder returns a recorder for a freshly built rig, which execute
// attaches. It errors for reader-driven rigs: the reader's inventory
// state machine lives outside the snapshot.
func newRecorder(rig *core.Rig, spec Spec, done func(*Template)) (*recorder, error) {
	if rig.Reader != nil {
		return nil, fmt.Errorf("scenario: reader specs cannot be templated")
	}
	return &recorder{rig: rig, spec: spec, done: done}, nil
}

// attach puts the recorder in front of the session's output w and
// snapshots the rig from its next power-on on.
func (r *recorder) attach(w io.Writer) io.Writer {
	r.w = w
	r.rig.Runner.OnPowerOn = r.powerOn
	return r
}

func (r *recorder) Write(p []byte) (int, error) {
	if !r.stopped {
		r.out = append(r.out, p...)
	}
	return r.w.Write(p)
}

func (r *recorder) powerOn() {
	if r.spare == nil {
		r.spare = new(core.RigSnapshot)
	}
	if r.rig.SnapshotInto(r.spare) != nil {
		return // keep the previous point
	}
	r.snap, r.spare = r.spare, r.snap
	r.n, r.tally = len(r.out), r.rig.Runner.Tally()
}

// stop ends the recording at the first debugger entry or the end of the
// run and hands the template to done: nil if the rig never powered on.
func (r *recorder) stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.rig.Runner.OnPowerOn = nil
	var t *Template
	if r.snap != nil {
		t = &Template{
			spec:  r.spec,
			clock: sim.NewClock(r.rig.Device.Clock.Hz()),
			at:    &point{snap: r.snap, prefix: r.out[:r.n:r.n], tally: r.tally},
		}
	}
	r.snap, r.spare = nil, nil
	r.done(t)
}

// NewTemplate builds a template for the spec by running it cold with the
// output discarded, halting at the first debugger entry; the spec's
// deadline bounds the run. It errors for specs that cannot be templated:
// reader-driven rigs and rigs that do not reach turn-on before the
// deadline. A Pool records its templates during sessions instead.
func NewTemplate(spec Spec) (*Template, error) {
	spec = spec.withDefaults()
	rig, prog, err := buildRig(spec)
	if err != nil {
		return nil, err
	}
	var t *Template
	rec, err := newRecorder(rig, spec, func(recorded *Template) { t = recorded })
	if err != nil {
		return nil, err
	}
	run := spec
	run.Script, run.Interactive = "halt", false
	// A run error (a charge that never reaches turn-on) ends the run like
	// the deadline: a point before it is still one a cold run passes.
	_, _ = execute(rig, prog, run, io.Discard, nil, rec)
	if t == nil {
		return nil, fmt.Errorf("scenario: template rig did not reach turn-on within %gs", spec.Seconds)
	}
	return t, nil
}

// Usable reports whether warm forks of this template can serve the spec:
// the simulation-shaping fields must match and the deadline must lie
// strictly past the template's point.
func (t *Template) Usable(spec Spec) bool {
	spec = spec.withDefaults()
	return templateKey(spec) == templateKey(t.spec) && t.deadline(spec) > t.at.snap.Now()
}

// deadline is the absolute cycle a session of spec runs until.
func (t *Template) deadline(spec Spec) sim.Cycles {
	return t.clock.ToCycles(units.Seconds(spec.Seconds))
}

// Bytes returns the heap the template pins: its snapshot (core.RigSnapshot
// Bytes) and the output prefix forks write first.
func (t *Template) Bytes() int { return t.at.snap.Bytes() + len(t.at.prefix) }

// ForkPoint returns the simulated time forks start at and the reboots the
// cold run has made by then. Only deadlines strictly past it can be served
// warm.
func (t *Template) ForkPoint() (seconds float64, reboots int) {
	return float64(t.clock.ToSeconds(t.at.snap.Now())), t.at.tally.Reboots
}

// Fork builds a fresh rig from the template's snapshot: the snapshot is
// applied, the runner continues its reboot and fault tallies, and the
// console holds the output the cold run wrote before that point, which
// execute passes on first. The rig is ready for execute() with the cold
// run's deadline and origin, for a spec the template is Usable for.
func (t *Template) Fork() (*core.Rig, device.Program, error) {
	rig, prog, err := buildRig(t.spec)
	if err != nil {
		return nil, nil, err
	}
	if t.spec.Trace {
		// Enable before Restore so the snapshot's samples are re-adopted.
		rig.EDB.TraceVcap()
	}
	if err := rig.Restore(t.at.snap); err != nil {
		return nil, nil, err
	}
	rig.Runner.Resume(t.at.tally)
	rig.Console.Write(t.at.prefix)
	return rig, prog, nil
}

// Run executes a warm fork of the template under the given per-session
// spec, producing output byte-identical to Run(spec, out, prompt).
func (t *Template) Run(spec Spec, out io.Writer, prompt PromptFunc) (Result, error) {
	spec = spec.withDefaults()
	if !t.Usable(spec) {
		return Result{}, fmt.Errorf("scenario: template does not cover spec")
	}
	rig, prog, err := t.Fork()
	if err != nil {
		return Result{}, err
	}
	return execute(rig, prog, spec, out, prompt, nil)
}

// TemplateKey collapses a spec to its simulation-shaping fields (Seconds,
// Script and Interactive are per-session). Two specs with equal keys can be
// served from the same template; this is the cluster placement key.
func TemplateKey(s Spec) string { return templateKey(s.withDefaults()) }

// SpecHash is the 64-bit FNV-1a of TemplateKey(s), the compact form the
// wire carries for placement. Collisions only cost placement quality: the
// full spec always rides along, and a pool keys its templates by the full
// TemplateKey.
func SpecHash(s Spec) uint64 {
	h := fnv.New64a()
	h.Write([]byte(TemplateKey(s)))
	return h.Sum64()
}

// templateKey collapses a spec to its simulation-shaping fields. Seconds,
// Script and Interactive are per-session: they change what a session does
// with the rig, not how the rig evolves from cycle 0. The string fields
// escape the separator, so two specs share a key only if every field is
// equal.
func templateKey(s Spec) string {
	e := keyEscaper.Replace
	return fmt.Sprintf("%s|%s|%s|%t|%t|%s|%g|%d|%t",
		e(s.App), e(s.AsmName), e(s.AsmSource), s.Assert, s.Guards, e(s.Print), s.Distance, s.Seed, s.Trace)
}

// keyEscaper leaves a string without a backslash or a '|' as it is.
var keyEscaper = strings.NewReplacer(`\`, `\\`, `|`, `\|`)

// poolBudget bounds the bytes the pool's templates pin (Template.Bytes).
// A template over maxTemplateBytes is not kept: its family runs cold.
const (
	poolBudget       = 64 << 20
	maxTemplateBytes = poolBudget / 4
)

// PoolMetrics counts how sessions were served.
type PoolMetrics struct {
	WarmForks      uint64 // sessions served from a template fork
	ColdBoots      uint64 // sessions simulated from cycle 0
	TemplatesBuilt uint64 // templates recorded during cold sessions
	Evictions      uint64 // templates let go: evicted, or over a quarter of the budget
	TemplateBytes  int64  // bytes the held templates pin
}

// poolEntry is a family that is recording its template (tmpl is nil) or
// holds one. A family that does neither has no entry.
type poolEntry struct {
	tmpl  *Template
	bytes int64  // tmpl.Bytes(), counted when it was published
	used  uint64 // the pool's use count at the last fork or the publish
}

// Pool serves scenario sessions, warm-starting them from per-spec
// templates. A family's first session runs cold and records the template
// as it goes; later sessions fork it. A session whose deadline falls
// before the template's point runs cold. The templates pin at most
// poolBudget bytes: publishing one evicts the least recently used until
// they fit, and an evicted family's next session records again. A fork
// that is running keeps its snapshot, evicted or not.
type Pool struct {
	mu      sync.Mutex
	entries map[string]*poolEntry
	uses    uint64 // stamps each fork and publish, for the LRU order
	metrics PoolMetrics
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{entries: make(map[string]*poolEntry)}
}

// Run serves one session for the spec, warm when possible, cold
// otherwise. Output is byte-identical either way.
func (p *Pool) Run(spec Spec, out io.Writer, prompt PromptFunc) (Result, error) {
	spec = spec.withDefaults()
	key := templateKey(spec)

	p.mu.Lock()
	e := p.entries[key]
	if e != nil && e.tmpl != nil && e.tmpl.Usable(spec) {
		p.uses++
		e.used = p.uses
		p.metrics.WarmForks++
		tmpl := e.tmpl
		p.mu.Unlock()
		return tmpl.Run(spec, out, prompt)
	}
	p.metrics.ColdBoots++
	if e != nil {
		p.mu.Unlock()
		return Run(spec, out, prompt)
	}
	// No entry: this cold session records the family's template, which is
	// published as soon as the recording stops, at the session's first
	// debugger entry, so sessions arriving meanwhile can fork it.
	p.entries[key] = new(poolEntry)
	p.mu.Unlock()
	rig, prog, err := buildRig(spec)
	if err != nil {
		p.publish(key, nil)
		return Result{}, err
	}
	rec, err := newRecorder(rig, spec, func(t *Template) { p.publish(key, t) })
	if err != nil {
		p.publish(key, nil) // a reader-driven rig runs cold
	}
	return execute(rig, prog, spec, out, prompt, rec)
}

// publish ends a family's recording with its template: nil if the session
// never reached turn-on or the rig cannot be templated. A family left
// without a template, nil or over maxTemplateBytes, has no entry, so its
// next session records again. A kept template evicts the least recently
// used ones until the held templates fit the budget.
func (p *Pool) publish(key string, t *Template) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t == nil {
		delete(p.entries, key)
		return
	}
	p.metrics.TemplatesBuilt++
	n := int64(t.Bytes())
	if n > maxTemplateBytes {
		p.metrics.Evictions++
		delete(p.entries, key)
		return
	}
	p.uses++
	// A recording family's entry stays until this publish: no eviction
	// takes an entry without a template.
	e := p.entries[key]
	e.tmpl, e.bytes, e.used = t, n, p.uses
	p.metrics.TemplateBytes += n
	for p.metrics.TemplateBytes > poolBudget {
		// The new template is the most recently used, and within the
		// budget alone, so it is never the one to go.
		lru, oldest := "", ^uint64(0)
		for k, o := range p.entries {
			if o.tmpl != nil && o.used < oldest {
				lru, oldest = k, o.used
			}
		}
		p.metrics.Evictions++
		p.metrics.TemplateBytes -= p.entries[lru].bytes
		delete(p.entries, lru)
	}
}

// Metrics returns a snapshot of the pool's counters.
func (p *Pool) Metrics() PoolMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}
