// Package scenario is the shared run engine behind cmd/edb and the edbd
// daemon: it assembles a rig for a named firmware scenario, runs it
// intermittently with the debugger attached, drives interactive sessions
// from a script or a prompt callback, and writes every byte of user-facing
// output to an injected io.Writer.
//
// Because the local CLI and a remote edbd session execute the exact same
// engine, a scripted remote session's console output is byte-identical to
// the same script run locally — determinism survives the network hop.
package scenario

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/explore"
	"repro/internal/isa"
	"repro/internal/rfid"
	"repro/internal/trace"
	"repro/internal/units"
)

// Spec describes one debugging scenario: which firmware to run, for how
// long, under which energy conditions, and how interactive sessions are
// driven. It mirrors the cmd/edb flag set and crosses the wire verbatim
// for remote sessions.
type Spec struct {
	// App names a built-in firmware: linkedlist|safelist|fib|activity|rfid|busy.
	App string
	// AsmName/AsmSource run an MSP430-subset assembly program instead of App.
	AsmName   string
	AsmSource string
	// Assert enables the keep-alive assertions (linkedlist/safelist).
	Assert bool
	// Guards wraps debug instrumentation in energy guards (fib), or whole
	// loop iterations (linkedlist's §3.3.3 porting starting point).
	Guards bool
	// Print selects the activity app's print mode: none|uart|edb.
	Print string
	// Seconds is the simulated duration (default 10).
	Seconds float64
	// Distance is the reader-to-tag distance in meters (default 1).
	Distance float64
	// Seed is the deterministic seed (default 42).
	Seed int64
	// Trace prints the final 150 ms energy trace after the run.
	Trace bool
	// Script holds semicolon-separated console commands run in each
	// interactive session. When empty and a prompt callback is supplied,
	// sessions are driven interactively instead.
	Script string
	// Interactive asks a remote server to drive sessions through prompt
	// round-trips (the local CLI passes a prompt function directly).
	Interactive bool
}

// withDefaults fills zero-valued fields like the cmd/edb flag defaults.
func (s Spec) withDefaults() Spec {
	if s.App == "" && s.AsmSource == "" {
		s.App = "linkedlist"
	}
	if s.Print == "" {
		s.Print = "none"
	}
	if s.Seconds <= 0 {
		s.Seconds = 10
	}
	if s.Distance <= 0 {
		s.Distance = 1.0
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// Validate reports whether the spec names a runnable scenario, without
// assembling a rig. edbd uses it to reject bad requests cheaply; cmd/edb
// uses it to map spec mistakes to usage-style exits.
func Validate(s Spec) error {
	// A NaN fails every comparison, so it would slip past both the default
	// for a non-positive value and a server's duration limit, and a NaN
	// deadline never arrives.
	if math.IsNaN(s.Seconds) || math.IsInf(s.Seconds, 0) {
		return fmt.Errorf("scenario: duration %v s is not a finite number", s.Seconds)
	}
	if math.IsNaN(s.Distance) || math.IsInf(s.Distance, 0) {
		return fmt.Errorf("scenario: distance %v m is not a finite number", s.Distance)
	}
	s = s.withDefaults()
	if s.AsmSource != "" {
		return nil
	}
	_, _, err := buildProgram(s.App, s.Assert, s.Guards, s.Print)
	return err
}

// PromptFunc supplies the next interactive console command. Returning
// ok=false ends the session's console loop (stdin EOF locally, client
// hang-up remotely).
type PromptFunc func() (line string, ok bool)

// Result summarizes one scenario run.
type Result struct {
	// Run is the device runner's result (reboots, faults, halt reason).
	Run device.RunResult
	// SimCycles is the target clock at the end of the run.
	SimCycles uint64
	// Commands counts console commands executed across all sessions.
	Commands int
	// ScriptErrors counts scripted console commands that returned an
	// error; any makes ExitCode non-zero so CI and edbd detect failed
	// scripts.
	ScriptErrors int
	// ExitCode is the process exit status the run maps to: 0 on success,
	// 1 when a scripted command failed.
	ExitCode int
	// Vcap holds the final 150 ms energy-trace window when Spec.Trace was
	// set (what RenderASCII drew). Samples carry the exact capacitor
	// voltage, which only a local caller sees: edbd streams the window
	// through internal/tracecodec, which quantizes it onto the ADC grid.
	Vcap *trace.Series
}

// Run executes the scenario, writing all user-facing output to out. The
// prompt callback (may be nil) drives interactive sessions when the spec
// has no script. Returned errors are setup/run failures; scripted command
// errors are reported in Result.ScriptErrors/ExitCode instead.
func Run(spec Spec, out io.Writer, prompt PromptFunc) (Result, error) {
	spec = spec.withDefaults()
	rig, prog, err := buildRig(spec)
	if err != nil {
		return Result{}, err
	}
	return execute(rig, prog, spec, out, prompt, nil)
}

// buildRig assembles the rig and program a (defaulted) spec describes.
// Identical specs build identical rigs — the foundation warm-start forking
// rests on.
func buildRig(spec Spec) (*core.Rig, device.Program, error) {
	var prog device.Program
	var reader *rfid.ReaderConfig
	if spec.AsmSource != "" {
		name := spec.AsmName
		if name == "" {
			name = "inline.asm"
		}
		prog = isa.NewProgram(name, spec.AsmSource)
	} else {
		var err error
		prog, reader, err = buildProgram(spec.App, spec.Assert, spec.Guards, spec.Print)
		if err != nil {
			return nil, nil, err
		}
	}

	opts := []core.Option{core.WithSeed(spec.Seed)}
	if reader != nil {
		rc := *reader
		rc.Distance = units.Meters(spec.Distance)
		opts = append(opts, core.WithReader(rc))
	} else {
		h := energy.NewRFHarvester()
		h.Distance = units.Meters(spec.Distance)
		opts = append(opts, core.WithHarvester(h))
	}

	rig, err := core.NewRig(prog, opts...)
	if err != nil {
		return nil, nil, err
	}
	return rig, prog, nil
}

// execute runs an assembled rig to the spec's absolute deadline. Cold rigs
// start at cycle 0, so the deadline and origin match what RunFor would
// use; warm-forked rigs resume at a power-on at the snapshot cycle but
// share the same absolute deadline and origin 0, making their output
// byte-identical to a cold run's. A cold rig may carry a recorder (else
// nil), which records a template until the first debugger entry.
func execute(rig *core.Rig, prog device.Program, spec Spec, out io.Writer, prompt PromptFunc, rec *recorder) (Result, error) {
	var res Result
	if rec != nil {
		out = rec.attach(out)
	}
	rig.Console.SetOutput(out)
	rig.Console.SetExplore(exploreHandler(spec))
	var vcap *trace.Series
	if spec.Trace {
		// A warm fork arrives with tracing already enabled (and the
		// charge-phase samples restored); enabling it again would drop them.
		if vcap = rig.EDB.VcapSeries(); vcap == nil {
			vcap = rig.EDB.TraceVcap()
		}
	}

	rig.EDB.OnInteractive(func(s *edb.Session) {
		if rec != nil {
			rec.stop()
		}
		rig.Console.BindSession(s)
		defer rig.Console.BindSession(nil)
		fmt.Fprintf(out, "\n[edb] interactive session: %s (Vcap=%.3f V)\n", s.Reason, s.Voltage())
		switch {
		case spec.Script != "":
			runScript(rig, spec.Script, out, &res)
		case prompt != nil:
			runPromptConsole(rig, out, prompt, &res)
		default:
			fmt.Fprintln(out, "[edb] no -script or -i; resuming target")
		}
	})

	rr, err := rig.RunUntil(rig.Device.Clock.ToCycles(units.Seconds(spec.Seconds)), 0)
	if rec != nil {
		rec.stop()
	}
	if err != nil {
		return res, fmt.Errorf("run: %w", err)
	}
	res.Run = rr
	res.SimCycles = uint64(rig.Device.Clock.Now())

	fmt.Fprintln(out, "\n==== run summary ====")
	fmt.Fprintln(out, rr)
	summarize(rig, prog, out)

	if vcap != nil {
		fmt.Fprintln(out, "\n==== energy trace (last 150 ms) ====")
		total := rig.Device.Clock.Now()
		window := rig.Device.Clock.ToCycles(150 * core.Millisecond)
		late := trace.NewSeries(vcap.Name, vcap.Unit)
		late.Samples = vcap.Window(total-window, total)
		io.WriteString(out, trace.RenderASCII(late, rig.Device.Clock, 72, 12))
		res.Vcap = late
	}
	if o, err := rig.Exec("status"); err == nil {
		fmt.Fprintln(out, "\n==== debugger status ====")
		io.WriteString(out, o)
	}
	if res.ScriptErrors > 0 {
		res.ExitCode = 1
	}
	return res, nil
}

// runScript executes the spec's semicolon-separated commands in the open
// session, echoing each like an operator typing at the console.
func runScript(rig *core.Rig, script string, out io.Writer, res *Result) {
	for _, cmd := range strings.Split(script, ";") {
		cmd = strings.TrimSpace(cmd)
		if cmd == "" {
			continue
		}
		fmt.Fprintf(out, "(edb) %s\n", cmd)
		res.Commands++
		o, err := rig.Console.Exec(cmd)
		if err != nil {
			res.ScriptErrors++
			fmt.Fprintln(out, "error:", err)
			continue
		}
		io.WriteString(out, o)
		if cmd == "resume" || cmd == "halt" {
			return
		}
	}
}

// runPromptConsole drives the session from a prompt callback until
// resume/halt or the callback reports EOF.
func runPromptConsole(rig *core.Rig, out io.Writer, prompt PromptFunc, res *Result) {
	for {
		io.WriteString(out, "(edb) ")
		line, ok := prompt()
		if !ok {
			io.WriteString(out, "\n")
			return
		}
		line = strings.TrimSpace(line)
		res.Commands++
		o, err := rig.Console.Exec(line)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		io.WriteString(out, o)
		if line == "resume" || line == "halt" {
			return
		}
	}
}

// ExploreSpec captures the console `explore` command's options; together
// with the scenario Spec it determines the explore.Config. Zero-valued
// bounds mean the checker defaults.
type ExploreSpec struct {
	// Guards is the resolved guard setting for the forked firmware — the
	// session spec's default unless a guards/noguards option overrode it.
	Guards bool
	// Mode is the fork granularity: write|page.
	Mode string
	// Check enables the full-image hash cross-check.
	Check bool
	// Depth/Writes/States/Workers bound the search (0 = checker default).
	Depth   int
	Writes  int
	States  int
	Workers int
}

// ParseExploreArgs parses the console `explore` command's options into an
// ExploreSpec. defGuards seeds the guard setting a guards/noguards option
// overrides.
func ParseExploreArgs(args []string, defGuards bool) (ExploreSpec, error) {
	es := ExploreSpec{Guards: defGuards, Mode: explore.ModeWrite}
	for _, a := range args {
		switch a {
		case "guards":
			es.Guards = true
			continue
		case "noguards":
			es.Guards = false
			continue
		case "check":
			es.Check = true
			continue
		case "mode=write":
			es.Mode = explore.ModeWrite
			continue
		case "mode=page":
			es.Mode = explore.ModePage
			continue
		}
		k, v, ok := strings.Cut(a, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil || n <= 0 {
			return ExploreSpec{}, fmt.Errorf("explore: bad option %q (try help)", a)
		}
		switch k {
		case "depth":
			es.Depth = n
		case "writes":
			es.Writes = n
		case "states":
			es.States = n
		case "workers":
			es.Workers = n
		default:
			return ExploreSpec{}, fmt.Errorf("explore: unknown option %q (try help)", a)
		}
	}
	return es, nil
}

// ExploreConfig builds the checker Config an ExploreSpec describes for the
// given scenario Spec, which supplies the firmware and seed.
func ExploreConfig(spec Spec, es ExploreSpec) (explore.Config, error) {
	spec = spec.withDefaults()
	if spec.AsmSource != "" {
		return explore.Config{}, fmt.Errorf("explore: built-in apps only")
	}
	mode := es.Mode
	if mode == "" {
		mode = explore.ModeWrite
	}
	cfg := explore.Config{
		Mode:          mode,
		CheckHashes:   es.Check,
		MaxDepth:      es.Depth,
		MaxCandidates: es.Writes,
		MaxStates:     es.States,
		Workers:       es.Workers,
	}
	guards := es.Guards
	cfg.NewRig = func() (*device.Device, device.Program, error) {
		prog, reader, err := buildProgram(spec.App, spec.Assert, guards, spec.Print)
		if err != nil {
			return nil, nil, err
		}
		if reader != nil {
			return nil, nil, fmt.Errorf("explore: the rfid scenario is reader-driven and cannot be forked")
		}
		return core.ExploreTarget(prog, spec.Seed)
	}
	return cfg, nil
}

// exploreHandler adapts the console's `explore` command to the exhaustive
// intermittence checker. Each invocation forks fresh debugger-free rigs
// from the spec's firmware (the explorer installs its own probe, so it
// never touches the live rig), runs the bounded search, and returns the
// report text. Options: guards|noguards override the spec's guard setting;
// mode=write|page, depth=N, writes=N, states=N, workers=N bound the
// search; check enables the full-image hash cross-check.
func exploreHandler(spec Spec) func(args []string) (string, error) {
	return func(args []string) (string, error) {
		es, err := ParseExploreArgs(args, spec.Guards)
		if err != nil {
			return "", err
		}
		cfg, err := ExploreConfig(spec, es)
		if err != nil {
			return "", err
		}
		rep, err := explore.Run(cfg)
		if err != nil {
			return "", err
		}
		return rep.Format(), nil
	}
}

// buildProgram maps an app name to a firmware image (plus a reader for the
// RFID scenario).
func buildProgram(name string, withAssert, guards bool, printMode string) (device.Program, *rfid.ReaderConfig, error) {
	switch name {
	case "linkedlist":
		return &apps.LinkedList{WithAssert: withAssert, GuardIterations: guards}, nil, nil
	case "safelist":
		return &apps.SafeLinkedList{WithAssert: withAssert}, nil, nil
	case "fib":
		return &apps.Fib{DebugBuild: true, UseGuards: guards, MaxNodes: 4000}, nil, nil
	case "activity":
		mode := apps.NoPrint
		switch printMode {
		case "uart":
			mode = apps.UARTPrint
		case "edb":
			mode = apps.EDBPrint
		case "none", "":
		default:
			return nil, nil, fmt.Errorf("edb: unknown print mode %q", printMode)
		}
		return &apps.Activity{Print: mode}, nil, nil
	case "rfid":
		rc := rfid.DefaultReaderConfig()
		return &apps.WispRFID{}, &rc, nil
	case "busy":
		return &apps.Busy{}, nil, nil
	}
	return nil, nil, fmt.Errorf("edb: unknown app %q (linkedlist|safelist|fib|activity|rfid|busy)", name)
}

// summarize prints app-specific results.
func summarize(rig *core.Rig, prog device.Program, out io.Writer) {
	switch app := prog.(type) {
	case *apps.LinkedList:
		fmt.Fprintf(out, "iterations=%d tail-consistent=%v\n",
			app.Iterations(rig.Device), app.ConsistentTail(rig.Device))
	case *apps.SafeLinkedList:
		fmt.Fprintf(out, "iterations=%d consistent=%v (task-boundary build)\n",
			app.Iterations(rig.Device), app.Consistent(rig.Device))
	case *apps.Fib:
		fmt.Fprintf(out, "items=%d check-violations=%d guards=%d\n",
			app.Count(rig.Device), app.CheckErrors(rig.Device), rig.EDB.Stats().Guards)
	case *apps.Activity:
		st := app.Stats(rig.Device)
		fmt.Fprintf(out, "iterations=%d/%d (%.0f%% success) moving=%d stationary=%d\n",
			st.Completed, st.Attempted, 100*st.SuccessRate(), st.Moving, st.Stationary)
	case *apps.WispRFID:
		st := app.Stats(rig.Device)
		fmt.Fprintf(out, "queries=%d replies=%d corrupt=%d", st.Queries, st.Replies, st.Corrupt)
		if rig.Reader != nil {
			fmt.Fprintf(out, "  response-rate=%.0f%%", 100*rig.Reader.ResponseRate())
		}
		fmt.Fprintln(out)
	case *apps.Busy:
		fmt.Fprintf(out, "iterations=%d\n", app.Iterations(rig.Device))
	case *isa.Program:
		img := app.Image()
		fmt.Fprintf(out, "image: %d words at %#04x; instructions retired this power cycle: %d\n",
			len(img.Words), img.Org, app.CPU().Retired())
	}
}
