// Command perfbench is the repository's benchmark. Each run executes one
// workload in its own process, with load from one goroutine and one
// operation in flight, checks the output of every operation against goldens
// recorded during set-up, and prints every metric by name with its unit and
// sample count. The last line of standard output is one JSON object,
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
// its per-layer metrics (--trace 1).
//
// Run it from the root of a checkout through the launcher, which builds it
// from that checkout's sources:
//
//	bash perfbench/run.sh --workload rig|fleet|explore|session [--seed N] [--seconds S] [--trace 0|1]
//	bash perfbench/run.sh --workload all --trace 1
//
// "all" runs every workload in a child process of its own; with --trace 1
// it runs each workload untraced and then traced, and prints the tracing
// overhead of every end-to-end metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/parallel"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where a traced run writes its spans and CPU profile
	setups   int    // set-ups timed; setup_s is their median
	maxOps   int    // stop after this many ops instead of after seconds (tests)
}

// workload is one set of inputs the benchmark drives. setup builds the
// inputs from the seed and records the goldens every op is checked against.
// It runs several times: each call replaces the previous state and checks
// its goldens against the first call's, except on the rig, where each call
// adds a seed variant. op runs and checks one operation; a non-nil error
// marks it failed. report returns the workload's own metrics after the
// timed window.
type workload interface {
	setup() error
	// op returns what the op cost, which leaves out the time spent
	// checking its output.
	op(i int, tr *tracer) (cost, error)
	report(tr *tracer) []metric
	close()
}

// workloads maps each workload name to its constructor, in run order.
var workloads = []struct {
	name string
	make func(seed int64) workload
}{
	{"rig", newRig},
	{"fleet", newFleet},
	{"explore", newExplore},
	{"session", newSession},
}

// kind says how a metric is printed and checked.
type kind int

const (
	endToEnd    kind = iota // what a user sees; printed by every run
	layer                   // a single layer's time; traced runs only
	exactCount              // repeats exactly on a seed; compared across ops
	timingCount             // depends on host timing; printed, never compared
)

var kindLabel = map[kind]string{endToEnd: "e2e", layer: "layer", exactCount: "count", timingCount: "count~"}

type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value
	kind  kind
}

// endToEndJSON lists the end-to-end metrics of BENCHMARK.json: the ones
// every workload has, so that every run can report each of them. The op
// cost among them is op_cpu_ref_x, the median op's CPU time in multiples of
// the reference kernel's (reference.go); the workloads' own latencies and
// rates, which move with the host's drift, are printed beside it.
var endToEndJSON = []string{"setup_s", "peak_rss_mb", "op_cpu_ref_x"}

// result is the contract's last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "rig, fleet, explore, session or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that prints the per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory for a traced run's spans and CPU profile")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = 3
	if trace != 0 && trace != 1 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}

	if cfg.workload == "all" {
		if err := runAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var mk func(int64) workload
	for _, w := range workloads {
		if w.name == cfg.workload {
			mk = w.make
		}
	}
	if mk == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	w := mk(cfg.seed)
	res, err := run(cfg, w, os.Stdout)
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed their checks\n", res.Failed, res.Attempted)
	}
}

// run sets the workload up, drives ops for the configured window, and
// prints the report ending in the contract's JSON line.
func run(cfg config, w workload, out io.Writer) (result, error) {
	// One engine worker everywhere: on a small host, worker goroutines
	// competing with the GC and each other made rates swing by half.
	parallel.SetWorkers(1)

	var setupTimes []float64
	for i := 0; i < cfg.setups; i++ {
		t := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var tr *tracer
	var prof *profiler
	if cfg.trace {
		tr = newTracer()
		var err error
		if prof, err = startProfile(); err != nil {
			return result{}, err
		}
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var opMs, cpuMs, refMs []float64
	nextRef := time.Now()
	attempted, failed := 0, 0
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if cfg.maxOps > 0 {
			if i >= cfg.maxOps {
				break
			}
		} else if i > 0 && time.Since(start)+last > window {
			// The next op would end past the window; stop so each run
			// measures about the same span of host time.
			break
		}
		for !time.Now().Before(nextRef) {
			refMs = append(refMs, ms(refCPU()))
			nextRef = nextRef.Add(refEvery)
		}
		tr.beginOp(i)
		t := time.Now()
		c, err := w.op(i, tr)
		last = time.Since(t)
		tr.end()
		attempted++
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", cfg.workload, i, err)
			}
			continue
		}
		opMs = append(opMs, ms(c.wall))
		cpuMs = append(cpuMs, ms(c.cpu))
	}
	runtime.ReadMemStats(&ms1)

	var layers map[string]float64
	if prof != nil {
		var err error
		if layers, err = prof.stop(cfg.traceDir, cfg.workload); err != nil {
			return result{}, err
		}
	}

	metrics := []metric{
		{name: "setup_s", unit: "s", value: median(setupTimes), n: len(setupTimes), kind: endToEnd},
		{name: "peak_rss_mb", unit: "MB", value: peakRSSMB(), n: 1, kind: endToEnd},
		{name: "op_ms_p50", unit: "ms", value: median(opMs), n: len(opMs), kind: endToEnd},
		{name: "op_cpu_ms_p50", unit: "ms", value: median(cpuMs), n: len(cpuMs), kind: endToEnd},
		{name: "ref_cpu_ms_p50", unit: "ms", value: median(refMs), n: len(refMs), kind: endToEnd},
		{name: "op_cpu_ref_x", unit: "x", value: ratio(median(cpuMs), median(refMs)), n: len(cpuMs), kind: endToEnd},
		{name: "runtime.alloc_mb", unit: "MB", value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(attempted),
			n: attempted, kind: timingCount},
	}
	metrics = append(metrics, w.report(tr)...)
	if cfg.trace {
		for _, l := range profiledLayers {
			metrics = append(metrics, metric{name: l + ".self_ms", unit: "ms", value: layers[l] / float64(attempted), n: attempted, kind: layer})
		}
		if err := tr.write(cfg.traceDir, cfg.workload); err != nil {
			return result{}, err
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	byName := map[string]metric{}
	for _, m := range metrics {
		byName[m.name] = m
	}
	if cfg.trace {
		for _, l := range perLayerJSON {
			res.Metrics[l.name] = jsonMetric{Value: byName[l.name].value, Unit: l.unit}
		}
	} else {
		for _, name := range endToEndJSON {
			m := byName[name]
			res.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}

	printReport(out, cfg, attempted, failed, metrics, layers)
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// printReport writes the human-readable part of a run: the host record,
// then every metric with its unit and sample count.
func printReport(out io.Writer, cfg config, attempted, failed int, metrics []metric, layers map[string]float64) {
	samples := map[string]int{}
	for _, m := range metrics {
		if m.kind == endToEnd || m.kind == layer {
			samples[m.name] = m.n
		}
	}
	host := map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"parallel_workers": parallel.Workers(),
		"explore_workers":  exploreWorkers,
		"ops_attempted":    attempted,
		"ops_completed":    attempted - failed,
		"samples":          samples,
	}
	hj, _ := json.Marshal(host) // a map of plain values always marshals
	fmt.Fprintf(out, "host %s\n", hj)
	for _, k := range []kind{endToEnd, exactCount, timingCount, layer} {
		for _, m := range metrics {
			if m.kind == k {
				fmt.Fprintf(out, "%-6s %-32s %16s %-8s n=%d\n", kindLabel[k], m.name, formatValue(m.value), m.unit, m.n)
			}
		}
	}
	if layers != nil {
		// Every package the profile saw, not only the named layers, so a
		// shift into an unnamed one still shows.
		names := make([]string, 0, len(layers))
		total := 0.0
		for l, v := range layers {
			names = append(names, l)
			total += v
		}
		sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
		for _, l := range names {
			fmt.Fprintf(out, "cpu    %-32s %15.1f%% %10.3f ms/op\n", l, 100*layers[l]/total, layers[l]/float64(attempted))
		}
	}
}

// formatValue prints a value with all its digits, so that no two runs read
// alike by rounding.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cost is what one op took: wall time, and the CPU time of the whole
// process (engine, GC and in-process daemons alike). On a shared host the
// CPU time is the steadier of the two: it leaves out the time the host
// gave to others.
type cost struct{ wall, cpu time.Duration }

// measure runs fn and returns its cost.
func measure(fn func() error) (cost, error) {
	w0, c0 := time.Now(), cpuTime()
	err := fn()
	return cost{time.Since(w0), cpuTime() - c0}, err
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// runAll runs every workload in a child process of its own. With tracing it
// runs each one twice, untraced then traced, and prints the difference of
// each end-to-end metric: the cost of observing the program.
func runAll(cfg config, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(name string, trace bool) (map[string]float64, result, error) {
		t := "0"
		if trace {
			t = "1"
		}
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", formatValue(cfg.seconds), "--trace", t, "--trace-dir", cfg.traceDir)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(out, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, result{}, fmt.Errorf("workload %s: %w", name, err)
		}
		return parseRun(buf.Bytes())
	}

	total := result{Correct: true, Metrics: map[string]jsonMetric{}}
	var overhead []string
	for _, w := range workloads {
		e2e, res, err := child(w.name, false)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
		if !cfg.trace {
			continue
		}
		traced, tres, err := child(w.name, true)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && tres.Correct
		names := make([]string, 0, len(e2e))
		for k := range e2e {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			base, tv := e2e[k], traced[k]
			pct := 0.0
			if base != 0 {
				pct = 100 * (tv - base) / base
			}
			overhead = append(overhead, fmt.Sprintf("overhead %-8s %-16s untraced %-14s traced %-14s %+.1f%%",
				w.name, k, formatValue(base), formatValue(tv), pct))
		}
	}
	for _, l := range overhead {
		fmt.Fprintln(out, l)
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !total.Correct {
		return fmt.Errorf("%d of %d ops failed their checks", total.Failed, total.Attempted)
	}
	return nil
}

// parseRun reads a run's output back: its end-to-end lines and its result.
func parseRun(b []byte) (map[string]float64, result, error) {
	e2e := map[string]float64{}
	var res result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) >= 3 && f[0] == kindLabel[endToEnd] {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				e2e[f[1]] = v
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, result{}, fmt.Errorf("reading result line: %w", err)
	}
	return e2e, res, nil
}
