package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func readRecord(t *testing.T, dir string) map[string]map[string]float64 {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]map[string]float64
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// A run rewrites only its own suites in BENCH.json: `-fleet -kernel`
// replaces the fleet-bench, kernel and suite entries and keeps every other
// suite already on record.
func TestBenchRecordKeepsOtherSuites(t *testing.T) {
	dir := t.TempDir()
	failover := map[string]float64{"failover_sessions_lost": 0, "failover_handoff_p99_ms": 0.21}
	prior := map[string]map[string]float64{
		"gateway-failover": failover,
		"kernel":           {"kernel_sim_s_per_sec": -1},
		"suite":            {"experiments": 1},
	}
	if err := mergeBench(dir, prior); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	if code := run([]string{"-fleet", "-kernel", "-quick", "-out", dir}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rec := readRecord(t, dir)
	if !reflect.DeepEqual(rec["gateway-failover"], failover) {
		t.Fatalf("gateway-failover suite = %v, want %v", rec["gateway-failover"], failover)
	}
	if rec["kernel"]["kernel_sim_s_per_sec"] <= 0 {
		t.Fatalf("kernel suite not replaced: %v", rec["kernel"])
	}
	if rec["fleet-bench"]["fleet_tags"] == 0 {
		t.Fatalf("fleet-bench suite missing: %v", rec["fleet-bench"])
	}
	if rec["suite"]["experiments"] != 2 {
		t.Fatalf("suite entry not replaced: %v", rec["suite"])
	}
	if len(rec) != 4 {
		t.Fatalf("record holds suites %v", rec)
	}
	for _, f := range []string{"BENCH_fleet.json", "fleet-bench.txt", "kernel.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

// A record that does not parse is reported and left as it was.
func TestBenchRecordKeepsUnreadableFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mergeBench(dir, map[string]map[string]float64{"suite": {"experiments": 1}}); err == nil {
		t.Fatal("merge over an unreadable record succeeded")
	}
	if got, _ := os.ReadFile(path); string(got) != "{truncated" {
		t.Fatalf("unreadable record was overwritten with %q", got)
	}
}
