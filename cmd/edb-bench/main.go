// Command edb-bench regenerates the paper's evaluation: every table and
// figure of §5 runs on the simulated platform and prints in the paper's
// layout. Results are also written under -out as text files.
//
// Experiments run concurrently on a seed-sharded worker pool
// (internal/parallel); each owns an independent simulated bench, so the
// output is bit-for-bit identical to a sequential run — only faster. Output
// is buffered per experiment and printed in a fixed order.
//
// Every row it can run is one entry of registry: a paper experiment (group
// all) or a benchmark suite (group bench). -exp takes row ids and group
// ids.
//
// Usage:
//
//	edb-bench -exp all
//	edb-bench -exp table3 -out results
//	edb-bench -exp bench -quick -json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/parallel"
	"repro/internal/tracecodec"
	"repro/internal/units"
	"repro/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Group ids: -exp all selects every paper experiment and -exp bench every
// benchmark suite.
const (
	groupPaper = "all"
	groupBench = "bench"
)

// A row is one id -exp accepts: a paper experiment or a benchmark suite.
// jobs returns what it runs, in print order.
type row struct {
	id, group string
	jobs      func(options) []job
}

// registry is every row edb-bench runs, in print order. A suite's row id is
// its key in BENCH.json; its job also writes its metrics to the named
// BENCH_*.json file.
var registry = []row{
	paper("table2", table2),
	paper("table3", table3),
	{"table4", groupPaper, printCostJobs},
	{"fig11", groupPaper, printCostJobs},
	{"fig7", groupPaper, fig7Jobs},
	{"fig9", groupPaper, fig9Jobs},
	paper("fig12", fig12),
	paper("fig2", fig2),
	paper("sweep", sweep),
	paper("sec531", sec531),
	paper("sec532", sec532),
	paper("baselines", baselines),
	{"ablations", groupPaper, ablationJobs},
	paper("explore", exploreExp),
	{"fleet", groupPaper, one("fleet-table4", "", fleetTable4)},
	suite("trace-codec", "BENCH_trace.json", runTraceBench),
	suite("snapshot", "BENCH_snapshot.json", runSnapshotBench),
	suite("fleet-bench", "BENCH_fleet.json", runFleetBench),
	suite("kernel", "", runKernelBench),
	suite("cluster", "BENCH_cluster.json", runClusterBench),
	suite("gateway-failover", "BENCH_gateway_failover.json", runGatewayFailoverBench),
	suite("explore-bench", "BENCH_explore.json", runExploreBench),
}

// options are the flags a job reads, and the row ids selected with it.
type options struct {
	quick, csv bool
	fleetTags  int
	sel        map[string]bool
}

// one returns the jobs of a row that runs fn as the single job id, which
// also writes its metrics to record unless that is "".
func one(id, record string, fn func(*jobOut, options) error) func(options) []job {
	return func(opt options) []job {
		return []job{{id: id, record: record, fn: func(o *jobOut) error { return fn(o, opt) }}}
	}
}

func paper(id string, fn func(*jobOut, options) error) row {
	return row{id, groupPaper, one(id, "", fn)}
}

func suite(id, record string, fn func(*jobOut, options) error) row {
	return row{id, groupBench, one(id, record, fn)}
}

// rowIDs lists every row id for -exp's help and errors.
func rowIDs() string {
	ids := make([]string, len(registry))
	for i, r := range registry {
		ids[i] = r.id
	}
	return strings.Join(ids, "|")
}

// selectRows resolves an -exp list, each entry a row id or a group id, to
// the set of row ids it selects. It also returns the entries that name
// neither.
func selectRows(list string) (sel map[string]bool, unknown []string) {
	sel = map[string]bool{}
	for _, w := range strings.Split(list, ",") {
		if w = strings.TrimSpace(w); w == "" {
			continue
		}
		known := false
		for _, r := range registry {
			if w == r.id || w == r.group {
				sel[r.id] = true
				known = true
			}
		}
		if !known {
			unknown = append(unknown, w)
		}
	}
	return sel, unknown
}

// jobsOf returns the jobs of the selected rows in registry order; a job
// that two selected rows share runs once.
func jobsOf(sel map[string]bool, opt options) []job {
	opt.sel = sel
	var jobs []job
	for _, r := range registry {
		if !sel[r.id] {
			continue
		}
		for _, j := range r.jobs(opt) {
			if !slices.ContainsFunc(jobs, func(k job) bool { return k.id == j.id }) {
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// run is the whole command on the given arguments; it returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	flags := flag.NewFlagSet("edb-bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	exp := flags.String("exp", groupPaper, "comma-separated row ids ("+rowIDs()+"), or the groups all (the paper's experiments) and bench (the benchmark suites)")
	out := flags.String("out", "results", "output directory for result files ('' to skip writing)")
	quick := flags.Bool("quick", false, "shorter runs (coarser statistics)")
	csv := flags.Bool("csv", false, "also write figure data as CSV files")
	jsonOut := flags.Bool("json", false, "print headline metrics as a single JSON object (text results still go to -out)")
	par := flags.Int("par", 0, "worker count for the parallel runner (0 = GOMAXPROCS, 1 = sequential)")
	fleetTags := flags.Int("fleet-tags", 0, "fleet size for the fleet and fleet-bench rows (0 = defaults: 10000)")
	cpuprofile := flags.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flags.String("memprofile", "", "write a heap profile to this file on exit")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				if code == 0 {
					code = 2
				}
			}
		}()
	}

	if *par > 0 {
		parallel.SetWorkers(*par)
	}

	sel, unknown := selectRows(*exp)
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "unknown experiment ids in -exp: %s (ids: %s; groups: %s, %s)\n",
			strings.Join(unknown, ", "), rowIDs(), groupPaper, groupBench)
		return 2
	}
	jobs := jobsOf(sel, options{quick: *quick, csv: *csv, fleetTags: *fleetTags})
	if len(jobs) == 0 {
		fmt.Fprintf(stderr, "no experiments match -exp %q\n", *exp)
		return 2
	}

	// Run every selected experiment through the pool. Each job buffers its
	// output; results print afterwards in the jobs' declared order. Errors
	// are per-job: one failing experiment does not cancel the rest.
	start := time.Now()
	results, _ := parallel.Map(len(jobs), func(i int) (jobOut, error) {
		var o jobOut
		o.err = jobs[i].fn(&o)
		if rec := jobs[i].record; o.err == nil && rec != "" {
			o.err = o.record(rec)
		}
		return o, nil
	})
	wall := time.Since(start).Seconds()

	// Metrics aggregate as suite → metric → value; json.MarshalIndent
	// sorts map keys at both levels, so BENCH.json is byte-stable across
	// runs and diffable by scripts/benchcmp.sh. The file is a merge: the
	// suites this run produced replace their own entries and the rest of
	// the record stays.
	failures := 0
	metrics := map[string]map[string]float64{}
	for i, o := range results {
		id := jobs[i].id
		if o.err != nil {
			fmt.Fprintf(stderr, "%s: error: %v\n", id, o.err)
			failures++
			continue
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "==== %s ====\n", id)
			fmt.Fprintln(stdout, o.text)
		}
		if len(o.metrics) > 0 {
			metrics[id] = o.metrics
		}
		if *out != "" {
			for _, f := range o.resultFiles(id) {
				if err := writeResult(*out, f.name, f.content); err != nil {
					fmt.Fprintf(stderr, "%s: %v\n", id, err)
					failures++
				}
			}
		}
	}

	metrics["suite"] = map[string]float64{
		"wall_seconds": wall,
		"workers":      float64(parallel.Workers()),
		"experiments":  float64(len(jobs)),
		"failures":     float64(failures),
	}
	if *jsonOut {
		if blob, err := json.MarshalIndent(metrics, "", "  "); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			failures++
		} else {
			fmt.Fprintln(stdout, string(blob))
		}
	}
	if *out != "" {
		if err := mergeBench(*out, metrics); err != nil {
			fmt.Fprintf(stderr, "BENCH.json: %v\n", err)
			failures++
		}
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "suite: %d experiments in %.2fs on %d workers\n", len(jobs), wall, parallel.Workers())
	}

	if failures > 0 {
		return 1
	}
	return 0
}

// mergeBench lays a run's suites over dir/BENCH.json: each suite in run
// replaces its entry, and every other suite already recorded stays. An
// existing file that does not parse is left alone and reported.
func mergeBench(dir string, run map[string]map[string]float64) error {
	record := map[string]map[string]float64{}
	old, err := os.ReadFile(filepath.Join(dir, "BENCH.json"))
	switch {
	case err == nil:
		if err := json.Unmarshal(old, &record); err != nil {
			return fmt.Errorf("existing record not overwritten: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for suite, m := range run {
		record[suite] = m
	}
	blob, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	return writeResult(dir, "BENCH.json", string(blob)+"\n")
}

// runTraceBench records a Figure-7-style RF harvest trace (linked-list app
// on the WISP5 rig) and measures the trace-stream codec against a raw
// encoding: framed bytes per sample both ways, the compression ratio, and
// encode/decode throughput. Decoded output is verified against the
// ADC-quantized input before any number is reported.
func runTraceBench(o *jobOut, opt options) error {
	dur := units.Seconds(20)
	if opt.quick {
		dur = 5
	}
	h := energy.NewRFHarvester()
	d := device.NewWISP5(h, 42)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	e.TraceVcap()
	app := &apps.LinkedList{}
	r := device.NewRunner(d, app)
	if err := r.Flash(); err != nil {
		return err
	}
	if _, err := r.RunFor(dur); err != nil {
		return err
	}
	series := e.VcapSeries()
	n := len(series.Samples)
	if n == 0 {
		return fmt.Errorf("trace bench: harvest run recorded no samples")
	}
	pts := make([]wire.TracePoint, n)
	for i, sm := range series.Samples {
		pts[i] = wire.TracePoint{At: uint64(sm.At), V: sm.V}
	}

	// Wire cost both ways, frame overhead included, in the server's chunk
	// size. The raw baseline is the layout of the retired raw trace frame
	// (type 0x22): a 6-byte header, the name and unit strings, a sample
	// count, and 16 bytes (uint64 cycle, float64 volts) per sample.
	const chunk = 512
	var enc tracecodec.Encoder
	var blob, frame []byte
	var rawBytes, zBytes int
	for i := 0; i < n; i += chunk {
		end := i + chunk
		if end > n {
			end = n
		}
		rawBytes += 6 + 4 + len(series.Name) + 4 + len(series.Unit) + 4 + 16*(end-i)
		blob = enc.Encode(blob[:0], pts[i:end])
		var err error
		frame, err = wire.AppendMsg(frame[:0], &wire.TraceZ{
			Name: series.Name, Unit: series.Unit, Count: uint32(end - i), Data: blob,
		}, 0)
		if err != nil {
			return err
		}
		zBytes += len(frame)
	}

	// Throughput over the full window, with the decoded stream verified
	// against the quantized input.
	full := enc.Encode(nil, pts)
	dec, err := tracecodec.Decode(nil, full, n)
	if err != nil {
		return fmt.Errorf("trace bench: decode: %w", err)
	}
	for i := range pts {
		if dec[i].At != pts[i].At || dec[i].V != tracecodec.Quantize(pts[i].V) {
			return fmt.Errorf("trace bench: sample %d decodes to (%d, %v), want (%d, %v)",
				i, dec[i].At, dec[i].V, pts[i].At, tracecodec.Quantize(pts[i].V))
		}
	}
	timePer := func(fn func()) float64 {
		const budget = 100 * time.Millisecond
		iters := 0
		start := time.Now()
		for time.Since(start) < budget {
			fn()
			iters++
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters) / float64(n)
	}
	encNs := timePer(func() { full = enc.Encode(full[:0], pts) })
	decNs := timePer(func() { dec, _ = tracecodec.Decode(dec[:0], full, n) })

	ratio := float64(rawBytes) / float64(zBytes)
	o.metric("trace_samples", float64(n))
	o.metric("trace_raw_bytes_per_sample", float64(rawBytes)/float64(n))
	o.metric("trace_z_bytes_per_sample", float64(zBytes)/float64(n))
	o.metric("trace_compression_ratio", ratio)
	o.metric("trace_encode_ns_per_sample", encNs)
	o.metric("trace_decode_ns_per_sample", decNs)

	var b strings.Builder
	fmt.Fprintf(&b, "trace codec on %.0fs RF harvest window (%d samples):\n", float64(dur), n)
	fmt.Fprintf(&b, "  raw stream        %8d bytes  (%.2f B/sample)\n", rawBytes, float64(rawBytes)/float64(n))
	fmt.Fprintf(&b, "  compressed stream %8d bytes  (%.2f B/sample)\n", zBytes, float64(zBytes)/float64(n))
	fmt.Fprintf(&b, "  compression       %.2fx\n", ratio)
	fmt.Fprintf(&b, "  encode %.1f ns/sample, decode %.1f ns/sample\n", encNs, decNs)
	o.text = b.String()
	return nil
}

// job is one experiment to run; fn fills the jobOut it is handed. A job
// with a record file also writes its metrics there, as JSON.
type job struct {
	id, record string
	fn         func(*jobOut) error
}

// jobOut is one experiment's buffered output: the text to print, files to
// write under -out, and headline metrics for the JSON summary.
type jobOut struct {
	text    string
	files   []resultFile
	metrics map[string]float64
	err     error
	// noDefaultFile suppresses the automatic <id>.txt (for combined jobs
	// that write their own per-part files).
	noDefaultFile bool
}

type resultFile struct{ name, content string }

func (o *jobOut) file(name, content string) {
	o.files = append(o.files, resultFile{name, content})
}

// resultFiles returns the files job id writes under -out: its own files
// plus, unless suppressed, its text as <id>.txt.
func (o *jobOut) resultFiles(id string) []resultFile {
	if o.noDefaultFile {
		return o.files
	}
	return append(o.files, resultFile{id + ".txt", o.text})
}

// record adds the job's metrics as the JSON file name.
func (o *jobOut) record(name string) error {
	js, err := json.MarshalIndent(o.metrics, "", "  ")
	if err != nil {
		return err
	}
	o.file(name, string(js)+"\n")
	return nil
}

func (o *jobOut) metric(name string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]float64{}
	}
	o.metrics[name] = v
}

func writeResult(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}
