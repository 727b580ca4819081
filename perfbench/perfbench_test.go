package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain runs the tests from the root of the checkout, as run.sh runs
// the benchmark: the rig workload reads firmware/*.s from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// namedMetrics are the end-to-end metrics each workload prints, with their
// units, beyond the ones every workload prints.
var namedMetrics = map[string][][2]string{
	"rig":     {{"paper_s", "s"}, {"sim_s_per_s", "sim-s/s"}},
	"fleet":   {{"sim_s_per_s", "sim-s/s"}},
	"explore": {{"states_per_s", "states/s"}},
	"session": {{"prompt_ms_p50", "ms"}, {"prompt_ms_p95", "ms"}, {"cmd_ms_p50", "ms"},
		{"cmd_ms_p99", "ms"}, {"sessions_per_s", "1/s"}},
}

// shortRun runs a workload for a couple of ops, set up once.
func shortRun(t *testing.T, w workload, name string, trace bool, ops int) (result, map[string]string) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: name, seed: 7, seconds: 1, trace: trace, traceDir: t.TempDir(), setups: 1, maxOps: ops}
	res, err := run(cfg, w, &out)
	w.close()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	units := map[string]string{} // name → unit of every e2e line printed
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 5 && f[0] == "e2e" && strings.HasPrefix(f[4], "n=") {
			units[f[1]] = f[3]
		}
	}
	var parsed result
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		t.Fatalf("%s: last line %q is not the result: %v", name, last, err)
	}
	if parsed.Attempted != res.Attempted || parsed.Failed != res.Failed || parsed.Correct != res.Correct {
		t.Fatalf("%s: printed result %+v, returned %+v", name, parsed, res)
	}
	return parsed, units
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, units := shortRun(t, w.make(7), w.name, trace, 2)
			if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := append([][2]string{{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"op_ms_p50", "ms"}, {"op_cpu_ms_p50", "ms"}, {"ref_cpu_ms_p50", "ms"}, {"op_cpu_ref_x", "x"}}, namedMetrics[w.name]...)
			for _, m := range want {
				if units[m[0]] != m[1] {
					t.Errorf("%s trace=%v: e2e %s printed with unit %q, want %q", w.name, trace, m[0], units[m[0]], m[1])
				}
			}
			var jsonWant []struct{ name, unit string }
			if trace {
				jsonWant = perLayerJSON
			} else {
				for _, name := range endToEndJSON {
					jsonWant = append(jsonWant, struct{ name, unit string }{name, units[name]})
				}
			}
			if len(res.Metrics) != len(jsonWant) {
				t.Errorf("%s trace=%v: result has %d metrics, want %d", w.name, trace, len(res.Metrics), len(jsonWant))
			}
			for _, m := range jsonWant {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: result metric %s = %+v, want unit %q", w.name, trace, m.name, got, m.unit)
				}
			}
			for _, name := range endToEndJSON {
				if v := res.Metrics[name].Value; !trace && v <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
				}
			}
		}
	}
}

// wrongGolden is the session workload with one seed's golden output
// corrupted after set-up.
type wrongGolden struct{ *sessionBench }

func (w wrongGolden) setup() error {
	if err := w.sessionBench.setup(); err != nil {
		return err
	}
	w.goldens[1] += "corrupted"
	return nil
}

// TestWrongGoldenFailsOneOp proves the output check fires: of one session
// per seed, exactly the one whose golden is wrong must fail.
func TestWrongGoldenFailsOneOp(t *testing.T) {
	res, _ := shortRun(t, wrongGolden{newSession(7).(*sessionBench)}, "session", false, sessionSeeds)
	if res.Attempted != sessionSeeds || res.Failed != 1 || res.Correct {
		t.Fatalf("attempted %d, failed %d, correct %v; want %d, 1, false",
			res.Attempted, res.Failed, res.Correct, sessionSeeds)
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEndJSON) {
		t.Errorf("end_to_end %v, want %v", e2e, endToEndJSON)
	}
	if len(spec.PerLayer) != len(perLayerJSON) {
		t.Fatalf("per_layer has %d metrics, want %d", len(spec.PerLayer), len(perLayerJSON))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerJSON[i].name || m.Unit != perLayerJSON[i].unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, m.Name, m.Unit, perLayerJSON[i].name, perLayerJSON[i].unit)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/energy.(*Supply).Step":             "energy",
		"repro/internal/fleet.(*fleetState).run.func1":     "fleet",
		"repro/internal/parallel.MapN[go.shape.struct {}]": "parallel",
		"math/rand.(*rngSource).Uint64":                    "rand",
		"runtime.mallocgc":                                 "runtime",
		"internal/runtime/atomic.(*Uint32).Load":           "runtime",
		"internal/runtime/syscall.Syscall6":                "syscall",
		"syscall.Syscall":                                  "syscall",
		"gcWriteBarrier":                                   "runtime",
		"type:.eq.[2]interface {}":                         "runtime",
		"internal/poll.(*FD).Read":                         "poll",
		"net.(*conn).Write":                                "net",
		"repro/internal/tracecodec.(*Encoder).Encode":      "tracecodec",
		"example.com/mod/v2.F":                             "mod",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
