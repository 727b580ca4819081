// Command edb-bench regenerates the paper's evaluation: every table and
// figure of §5 runs on the simulated platform and prints in the paper's
// layout. Results are also written under -out as text files.
//
// Experiments run concurrently on a seed-sharded worker pool
// (internal/parallel); each owns an independent simulated bench, so the
// output is bit-for-bit identical to a sequential run — only faster. Output
// is buffered per experiment and printed in a fixed order.
//
// Usage:
//
//	edb-bench -exp all
//	edb-bench -exp table3 -out results
//	edb-bench -json -quick
//
// Experiments: table2 table3 table4 fig2 fig7 fig9 fig11 fig12 sweep
// sec531 sec532 baselines ablations explore fleet all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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

func main() {
	exp := flag.String("exp", "all", "experiment id (table2|table3|table4|fig2|fig7|fig9|fig11|fig12|sweep|sec531|sec532|baselines|ablations|explore|fleet|all)")
	out := flag.String("out", "results", "output directory for result files ('' to skip writing)")
	quick := flag.Bool("quick", false, "shorter runs (coarser statistics)")
	csv := flag.Bool("csv", false, "also write figure data as CSV files")
	jsonOut := flag.Bool("json", false, "print headline metrics as a single JSON object (text results still go to -out)")
	par := flag.Int("par", 0, "worker count for the parallel runner (0 = GOMAXPROCS, 1 = sequential)")
	traceBench := flag.Bool("trace", false, "benchmark the trace-stream codec on a Figure-7-style RF harvest trace (writes BENCH_trace.json)")
	snapBench := flag.Bool("snapshot", false, "benchmark warm-start session forking and delta snapshots (writes BENCH_snapshot.json)")
	fleetBench := flag.Bool("fleet", false, "benchmark the batched fleet-simulation kernel against the sequential rig (writes BENCH_fleet.json)")
	fleetTags := flag.Int("fleet-tags", 0, "fleet size for -fleet and the fleet experiment (0 = defaults: 10000)")
	kernelBench := flag.Bool("kernel", false, "record the sequential simulator kernel baseline as a 'kernel' suite in BENCH.json")
	clusterBench := flag.Bool("cluster", false, "benchmark the edbd gateway tier: sessions/sec at 1/2/4 backends plus drain-migration latency (writes BENCH_cluster.json)")
	failoverBench := flag.Bool("gateway-failover", false, "benchmark replicated-gateway hand-off: kill the serving gateway under live sessions, measure client-observed resume latency and sessions lost (writes BENCH_gateway_failover.json)")
	exploreBench := flag.Bool("explore", false, "benchmark the exhaustive power-failure explorer: states/sec, dedup hit rate, 1/2/4-worker scaling (writes BENCH_explore.json)")
	exploreClusterBench := flag.Bool("explore-cluster", false, "benchmark distributed exploration through the gateway: states/sec at 1/2/4 backends vs single-process (writes BENCH_explore_cluster.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
	// exit flushes profiles before terminating: os.Exit skips defers, so
	// every termination path below goes through here.
	exit := func(code int) {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				if code == 0 {
					code = 2
				}
			}
		}
		os.Exit(code)
	}

	if *par > 0 {
		parallel.SetWorkers(*par)
	}

	wanted := strings.Split(*exp, ",")
	all := *exp == "all"
	// A benchmark flag (-trace, -snapshot, -fleet, -kernel, -explore) alone
	// runs just that benchmark; combining one with an explicit -exp adds it
	// to that selection.
	if *traceBench || *snapBench || *fleetBench || *kernelBench || *clusterBench || *failoverBench || *exploreBench || *exploreClusterBench {
		expSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "exp" {
				expSet = true
			}
		})
		if !expSet {
			all, wanted = false, nil
		}
	}
	want := func(id string) bool {
		if all {
			return true
		}
		for _, w := range wanted {
			if strings.TrimSpace(w) == id {
				return true
			}
		}
		return false
	}

	jobs := paperJobs(want, *quick, *csv, *fleetTags)
	add := func(id string, fn func(*jobOut) error) {
		jobs = append(jobs, job{id: id, fn: fn})
	}

	if *traceBench {
		add("trace-codec", func(o *jobOut) error { return runTraceBench(o, *quick) })
	}
	if *snapBench {
		add("snapshot", func(o *jobOut) error { return runSnapshotBench(o, *quick) })
	}
	if *fleetBench {
		add("fleet-bench", func(o *jobOut) error { return runFleetBench(o, *quick, *fleetTags) })
	}
	if *kernelBench {
		add("kernel", func(o *jobOut) error { return runKernelBench(o, *quick) })
	}
	if *clusterBench {
		add("cluster", func(o *jobOut) error { return runClusterBench(o, *quick) })
	}
	if *failoverBench {
		add("gateway-failover", func(o *jobOut) error { return runGatewayFailoverBench(o, *quick) })
	}
	if *exploreBench {
		add("explore-bench", func(o *jobOut) error { return runExploreBench(o, *quick) })
	}
	if *exploreClusterBench {
		add("explore-cluster-bench", func(o *jobOut) error { return runExploreClusterBench(o, *quick) })
	}

	if len(jobs) == 0 {
		fmt.Fprintf(os.Stderr, "no experiments match -exp %q\n", *exp)
		exit(2)
	}

	// Run every selected experiment through the pool. Each job buffers its
	// output; results print afterwards in the jobs' declared order. Errors
	// are per-job: one failing experiment does not cancel the rest.
	start := time.Now()
	results, _ := parallel.Map(len(jobs), func(i int) (jobOut, error) {
		var o jobOut
		o.err = jobs[i].fn(&o)
		return o, nil
	})
	wall := time.Since(start).Seconds()

	// Metrics aggregate as suite → metric → value; json.MarshalIndent
	// sorts map keys at both levels, so BENCH.json is byte-stable across
	// runs and diffable by scripts/benchcmp.sh.
	failures := 0
	metrics := map[string]map[string]float64{}
	for i, o := range results {
		id := jobs[i].id
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", id, o.err)
			failures++
			continue
		}
		if !*jsonOut {
			fmt.Printf("==== %s ====\n", id)
			fmt.Println(o.text)
		}
		if len(o.metrics) > 0 {
			metrics[id] = o.metrics
		}
		if *out != "" {
			for _, f := range o.resultFiles(id) {
				if err := writeResult(*out, f.name, f.content); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
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
	blob, err := json.MarshalIndent(metrics, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		failures++
	} else {
		if *jsonOut {
			fmt.Println(string(blob))
		}
		if *out != "" {
			if err := writeResult(*out, "BENCH.json", string(blob)+"\n"); err != nil {
				fmt.Fprintf(os.Stderr, "BENCH.json: %v\n", err)
				failures++
			}
		}
	}
	if !*jsonOut {
		fmt.Printf("suite: %d experiments in %.2fs on %d workers\n", len(jobs), wall, parallel.Workers())
	}

	if failures > 0 {
		exit(1)
	}
	exit(0)
}

// runTraceBench records a Figure-7-style RF harvest trace (linked-list app
// on the WISP5 rig) and measures the trace-stream codec against the raw
// wire encoding: framed bytes per sample both ways, the compression ratio,
// and encode/decode throughput. Decoded output is verified against the
// ADC-quantized input before any number is reported.
func runTraceBench(o *jobOut, quick bool) error {
	dur := units.Seconds(20)
	if quick {
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
	// size.
	const chunk = 512
	var enc tracecodec.Encoder
	var blob, frame []byte
	var rawBytes, zBytes int
	for i := 0; i < n; i += chunk {
		end := i + chunk
		if end > n {
			end = n
		}
		var err error
		frame, err = wire.AppendMsg(frame[:0], &wire.Trace{
			Name: series.Name, Unit: series.Unit, Samples: pts[i:end],
		}, 0)
		if err != nil {
			return err
		}
		rawBytes += len(frame)
		blob = enc.Encode(blob[:0], pts[i:end])
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

	js, err := json.MarshalIndent(o.metrics, "", "  ")
	if err != nil {
		return err
	}
	o.file("BENCH_trace.json", string(js)+"\n")
	return nil
}

// job is one experiment to run; fn fills the jobOut it is handed.
type job struct {
	id string
	fn func(*jobOut) error
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
