package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/scenario"
)

// The rig workload is the reproduction users run: one pass after another
// of every single-tag experiment `edb-bench -exp all` runs (all but the
// fleet-scale Table 4), at default sizes, then the five shipped firmware
// images under EDB. The single-rig stack does nearly all of its work here,
// with memsim dirty tracking off and no network: energy integration, the
// device runner, sim dispatch and EDB ADC sampling, plus the ISA
// interpreter in the firmware half only.
//
// The cost of a pass depends on its seeds: some experiments simulate twice
// as many reboots on one seed as on another, and whole passes differ by up
// to 8%. Each set-up therefore records the goldens of a seed variant of its
// own, and the passes of the timed window rotate through the variants, so
// that a run spreads over several seed sets.
//
// Predictions: ISA work moves only this workload's sim_s_per_s; a faster
// energy, device or sim layer moves paper_s and sim_s_per_s here; dirty
// tracking must leave it alone.

// firmwareSeconds is the simulated time each firmware image runs per pass.
const firmwareSeconds = 2

// rigExperiment is one experiment of the paper half: it runs with a seed
// derived from the workload seed and returns its text in the paper's layout.
type rigExperiment struct {
	id  string
	run func(seed int64) (string, error)
}

var rigExperiments = []rigExperiment{
	{"table2", func(seed int64) (string, error) {
		return experiments.RunTable2(experiments.Table2Config{Seed: seed}).Format(), nil
	}},
	{"table3", func(seed int64) (string, error) {
		cfg := experiments.DefaultTable3Config()
		cfg.Seed = seed
		r, err := experiments.RunTable3(cfg)
		return r.Format(), err
	}},
	{"table4", func(seed int64) (string, error) { // with Fig 11, derived from its runs
		cfg := experiments.DefaultPrintCostConfig()
		cfg.Seed = seed
		r, err := experiments.RunPrintCost(cfg)
		if err != nil {
			return "", err
		}
		return r.Format() + experiments.Fig11FromTable4(r).Format(), nil
	}},
	{"fig2", func(seed int64) (string, error) {
		r, err := experiments.RunFig2(3, seed)
		return r.Format(), err
	}},
	{"fig7", func(seed int64) (string, error) {
		cfg := experiments.DefaultFig7Config()
		cfg.Seed = seed
		p, err := experiments.RunFig7Panels(cfg)
		return p[0].Format() + p[1].Format(), err
	}},
	{"fig9", func(seed int64) (string, error) {
		cfg := experiments.DefaultFig9Config()
		cfg.Seed = seed
		p, err := experiments.RunFig9Panels(cfg)
		return p[0].Format() + p[1].Format(), err
	}},
	{"fig12", func(seed int64) (string, error) {
		cfg := experiments.DefaultFig12Config()
		cfg.Seed = seed
		r, err := experiments.RunFig12(cfg)
		return r.Format(), err
	}},
	{"sweep", func(seed int64) (string, error) {
		r, err := experiments.RunRangeSweep(8, seed)
		return r.Format(), err
	}},
	{"sec531", func(seed int64) (string, error) {
		r, err := experiments.RunSec531(seed)
		return r.Format(), err
	}},
	{"sec532", func(seed int64) (string, error) {
		r, err := experiments.RunSec532(40, seed)
		return r.Format(), err
	}},
	{"baselines", func(seed int64) (string, error) {
		r, err := experiments.RunBaselines(15, seed)
		return r.Format(), err
	}},
	{"ablations", func(seed int64) (string, error) {
		m, err := experiments.RunAblateRestoreMargin(20, seed)
		if err != nil {
			return "", err
		}
		p, err := experiments.RunAblateSamplePeriod(seed)
		return m.Format() + p.Format(), err
	}},
	{"explore", func(seed int64) (string, error) {
		cfg := experiments.DefaultExhaustiveConfig()
		cfg.Seed = seed
		cfg.CheckHashes = true
		r, err := experiments.RunExhaustive(cfg)
		if err != nil {
			return "", err
		}
		// The checks edb-bench enforces on every run of this experiment.
		if r.Unguarded.Clean() {
			return "", fmt.Errorf("unguarded build must exhibit WAR violations")
		}
		if !r.Guarded.Clean() {
			return "", fmt.Errorf("guarded build must verify clean")
		}
		return r.Format(), nil
	}},
}

// firmwareRun is the checked output of one firmware image's scenario run.
type firmwareRun struct {
	out string
	res scenario.Result
}

type rig struct {
	seed     int64
	variants []rigVariant

	paperS, simRate []float64
}

// rigVariant is one set of pass inputs and its goldens.
type rigVariant struct {
	expSeeds []int64         // as rigExperiments
	specs    []scenario.Spec // one per firmware image, sorted by name
	texts    []string        // golden experiment texts, as rigExperiments
	firmware []firmwareRun   // golden firmware runs, as specs
}

func newRig(seed int64) workload { return &rig{seed: seed} }

// setup assembles the firmware images and runs a warm-up pass of a new seed
// variant, which records its goldens.
func (r *rig) setup() error {
	v := rigVariant{}
	n := len(r.variants)
	for _, e := range rigExperiments {
		v.expSeeds = append(v.expSeeds, inputSeed(r.seed, fmt.Sprintf("experiments/%s/%d", e.id, n)))
	}
	paths, err := filepath.Glob(filepath.Join("firmware", "*.s"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no firmware/*.s images; run from the root of the checkout")
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if _, err := isa.Assemble(string(src)); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		name := filepath.Base(p)
		v.specs = append(v.specs, scenario.Spec{
			AsmName: name, AsmSource: string(src), Seconds: firmwareSeconds,
			Seed: inputSeed(r.seed, fmt.Sprintf("firmware/%s/%d", name, n)),
		})
	}

	p, err := r.pass(&v, nil)
	if err != nil {
		return err
	}
	v.texts, v.firmware = p.texts, p.firmware
	r.variants = append(r.variants, v)
	return nil
}

// passResult is what one pass produced, and how long each half took.
type passResult struct {
	texts         []string      // as rigExperiments
	firmware      []firmwareRun // as the specs
	paper, fwWall time.Duration
}

// pass runs the paper half and then the firmware half of a variant once.
func (r *rig) pass(v *rigVariant, tr *tracer) (passResult, error) {
	var p passResult
	start := time.Now()
	for i, e := range rigExperiments {
		tr.begin("experiments." + e.id)
		text, err := e.run(v.expSeeds[i])
		tr.end()
		if err != nil {
			return p, fmt.Errorf("%s: %w", e.id, err)
		}
		p.texts = append(p.texts, text)
	}
	p.paper = time.Since(start)

	start = time.Now()
	for _, s := range v.specs {
		var buf bytes.Buffer
		tr.begin("scenario.run")
		res, err := scenario.Run(s, &buf, nil)
		tr.end()
		if err != nil {
			return p, fmt.Errorf("%s: %w", s.AsmName, err)
		}
		p.firmware = append(p.firmware, firmwareRun{out: buf.String(), res: res})
	}
	p.fwWall = time.Since(start)
	return p, nil
}

// op runs a pass of variant n mod the number of variants and checks it
// against that variant's warm-up pass.
func (r *rig) op(n int, tr *tracer) (cost, error) {
	v := &r.variants[n%len(r.variants)]
	var p passResult
	c, err := measure(func() (err error) {
		p, err = r.pass(v, tr)
		return err
	})
	if err != nil {
		return c, err
	}
	for i, e := range rigExperiments {
		if p.texts[i] != v.texts[i] {
			return c, fmt.Errorf("%s: text differs from the warm-up pass", e.id)
		}
	}
	for i, s := range v.specs {
		if !reflect.DeepEqual(p.firmware[i], v.firmware[i]) {
			return c, fmt.Errorf("%s: run differs from the warm-up pass", s.AsmName)
		}
	}
	r.paperS = append(r.paperS, p.paper.Seconds())
	r.simRate = append(r.simRate, float64(len(v.specs)*firmwareSeconds)/p.fwWall.Seconds())
	return c, nil
}

// report gives the firmware half's counts per pass, averaged over the
// variants: exact for a seed, like the goldens they come from.
func (r *rig) report(tr *tracer) []metric {
	var cycles, reboots, faults, watch float64
	for _, v := range r.variants {
		for _, f := range v.firmware {
			cycles += float64(f.res.SimCycles)
			reboots += float64(f.res.Run.Reboots)
			faults += float64(f.res.Run.Faults)
			watch += float64(watchpoints(f.out))
		}
	}
	n := float64(len(r.variants))
	cycles, reboots, faults, watch = cycles/n, reboots/n, faults/n, watch/n
	out := []metric{
		{name: "paper_s", unit: "s", value: median(r.paperS), n: len(r.paperS), kind: endToEnd},
		{name: "sim_s_per_s", unit: "sim-s/s", value: median(r.simRate), n: len(r.simRate), kind: endToEnd},
		{name: "sim.cycles", unit: "count", value: cycles, n: len(r.variants), kind: exactCount},
		{name: "device.reboots", unit: "count", value: reboots, n: len(r.variants), kind: exactCount},
		{name: "device.faults", unit: "count", value: faults, n: len(r.variants), kind: exactCount},
		{name: "device.watchpoints", unit: "count", value: watch, n: len(r.variants), kind: exactCount},
	}
	if tr != nil {
		for _, e := range rigExperiments {
			v := tr.selfPerOp("experiments." + e.id)
			out = append(out, metric{name: "experiments." + e.id + "_ms", unit: "ms", value: median(v), n: len(v), kind: layer})
		}
		v := tr.selfPerOp("scenario.run")
		out = append(out, metric{name: "scenario.run_ms", unit: "ms", value: median(v), n: len(v), kind: layer})
	}
	return out
}

func (r *rig) close() {}

var watchpointEvents = regexp.MustCompile(`events\[watchpoint\] = (\d+)`)

// watchpoints reads the watchpoint count from a run's debugger status:
// EDB counts the watchpoint events it timestamps; the device's own
// statistics leave them out.
func watchpoints(out string) int {
	n := 0
	for _, m := range watchpointEvents.FindAllStringSubmatch(out, -1) {
		v, _ := strconv.Atoi(m[1]) // \d+ always parses
		n += v
	}
	return n
}
