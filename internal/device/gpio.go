package device

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/units"
)

// Well-known GPIO line names wired between the target and EDB (Fig. 5) or
// used by the evaluation applications.
const (
	// LineCodeMarker0/1 are the code-marker lines EDB decodes into
	// watchpoint identifiers (§4.1.3). With n marker lines the target can
	// signal 2ⁿ−1 distinct watchpoints.
	LineCodeMarker0 = "code-marker-0"
	LineCodeMarker1 = "code-marker-1"
	// LineDebugSignal is the dedicated target→debugger line that opens
	// active-mode exchanges (§4.2).
	LineDebugSignal = "debug-signal"
	// LineInterrupt is the debugger→target interrupt wire (Fig. 5).
	LineInterrupt = "interrupt"
	// LineAppPin is the application progress indicator the case studies
	// toggle at the top and bottom of their main loops (§5.3.1).
	LineAppPin = "app-pin"
	// LineLED is an indicator LED; lighting it raises the WISP's current
	// draw from ~1 mA to over 5 mA (§2.2), which is why LED-based tracing
	// is unusable on harvested power.
	LineLED = "led"
)

// LEDCurrent is the extra load while the LED is lit: the paper reports
// powering an LED increases the WISP's draw by five times, from around
// 1 mA to over 5 mA.
const LEDCurrent = units.Amps(4.2e-3)

// GPIOEdge describes a level transition on a line.
type GPIOEdge struct {
	Line  string
	At    sim.Cycles
	Level bool
}

// GPIOPorts is the device's GPIO controller. Lines are created on first
// use; every level change notifies subscribers (EDB's monitors, traces).
type GPIOPorts struct {
	d     *Device
	lines map[string]*gpioLine
	// Well-known lines resolved once: pin writes sit on the libEDB
	// watchpoint fast path, where a map probe per edge is measurable.
	marker0, marker1, debugSig *gpioLine
	subs                       []func(GPIOEdge)

	// version increments on every level change of a debugger wire (see
	// debugWire) and at the silent reset at reboot. Observers (EDB's
	// leakage model) use it to cache derived state that is a pure function
	// of those lines' levels.
	version uint64
}

type gpioLine struct {
	name    string
	level   bool
	toggles uint64
	// debugWire marks the lines whose edges move the version counter.
	debugWire bool
}

// debugWire reports whether a line is one of the wires to the debugger
// whose levels GPIOPorts.Version tracks: the code markers, the debug signal
// and the interrupt line. Application pins and the LED toggle far more
// often and are left out.
func debugWire(name string) bool {
	switch name {
	case LineCodeMarker0, LineCodeMarker1, LineDebugSignal, LineInterrupt:
		return true
	}
	return false
}

func newGPIOPorts(d *Device) *GPIOPorts {
	return &GPIOPorts{d: d, lines: make(map[string]*gpioLine)}
}

func (g *GPIOPorts) line(name string) *gpioLine {
	switch name {
	case LineCodeMarker0:
		if g.marker0 == nil {
			g.marker0 = g.lookup(name)
		}
		return g.marker0
	case LineCodeMarker1:
		if g.marker1 == nil {
			g.marker1 = g.lookup(name)
		}
		return g.marker1
	case LineDebugSignal:
		if g.debugSig == nil {
			g.debugSig = g.lookup(name)
		}
		return g.debugSig
	}
	return g.lookup(name)
}

func (g *GPIOPorts) lookup(name string) *gpioLine {
	l, ok := g.lines[name]
	if !ok {
		l = &gpioLine{name: name, debugWire: debugWire(name)}
		g.lines[name] = l
	}
	return l
}

// Subscribe registers fn to observe every edge on every line. It returns a
// remove function.
func (g *GPIOPorts) Subscribe(fn func(GPIOEdge)) func() {
	g.subs = append(g.subs, fn)
	idx := len(g.subs) - 1
	return func() { g.subs[idx] = nil }
}

// set drives a line to the given level.
func (g *GPIOPorts) set(name string, level bool) { g.drive(g.line(name), level) }

// toggle inverts a line.
func (g *GPIOPorts) toggle(name string) {
	l := g.line(name)
	g.drive(l, !l.level)
}

// drive sets l to level and, if that is an edge, counts it and notifies
// subscribers.
func (g *GPIOPorts) drive(l *gpioLine, level bool) {
	if l.level == level {
		return
	}
	l.level = level
	l.toggles++
	if l.debugWire {
		g.version++
	}
	edge := GPIOEdge{Line: l.name, At: g.d.Clock.Now(), Level: level}
	for _, fn := range g.subs {
		if fn != nil {
			fn(edge)
		}
	}
	// The LED is a real load.
	if l.name == LineLED {
		if level {
			g.d.SetLoad("led", LEDCurrent)
		} else {
			g.d.SetLoad("led", 0)
		}
	}
}

// Level returns the present level of a line (false if never driven).
func (g *GPIOPorts) Level(name string) bool { return g.line(name).level }

// Toggles returns the number of level changes a line has seen — a cheap way
// for tests to ask "is the main loop still running?".
func (g *GPIOPorts) Toggles(name string) uint64 { return g.line(name).toggles }

// Names returns the lines that exist, sorted.
func (g *GPIOPorts) Names() []string {
	out := make([]string, 0, len(g.lines))
	for n := range g.lines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// reset drives all outputs low without counting toggles (power-on state).
func (g *GPIOPorts) reset() {
	for _, l := range g.lines {
		l.level = false
	}
	g.version++
	g.d.SetLoad("led", 0)
}

// Version returns the debugger-wire level counter. It changes whenever the
// level of a code-marker line, the debug-signal line or the interrupt line
// may have changed since a previous Version call, and at every reset;
// edges on other lines (application pins, the LED) leave it alone.
func (g *GPIOPorts) Version() uint64 { return g.version }

func (e GPIOEdge) String() string {
	lv := "↓"
	if e.Level {
		lv = "↑"
	}
	return fmt.Sprintf("%s%s@%d", e.Line, lv, e.At)
}
