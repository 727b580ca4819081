package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// An -exp list with an unknown id runs nothing: run exits 2, names every
// unknown id and lists the known ids and groups.
func TestUnknownExperimentIDs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2,tabel3, fig99", "-out", ""}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("experiments ran despite unknown ids:\n%s", stdout.String())
	}
	msg := stderr.String()
	for _, want := range []string{"tabel3, fig99", rowIDs(), "groups: all, bench"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
}

// The groups select what edb-bench has always run: all the 15 paper
// experiments, as the jobs they print under, in print order; bench the
// seven suites, each under its BENCH.json key and with its BENCH_*.json
// file. Row ids are unique and name no group.
func TestRegistryGroups(t *testing.T) {
	seen := map[string]bool{groupPaper: true, groupBench: true}
	for _, r := range registry {
		if seen[r.id] {
			t.Errorf("row id %q is not unique", r.id)
		}
		seen[r.id] = true
	}
	for _, tc := range []struct{ group, rows, jobs string }{
		{groupPaper,
			"ablations baselines explore fig11 fig12 fig2 fig7 fig9 fleet sec531 sec532 sweep table2 table3 table4",
			"table2 table3 table4+fig11 fig7-noassert fig7-assert fig9-unguarded fig9-guarded fig12 fig2 sweep " +
				"sec531 sec532 baselines ablation-restore-margin ablation-sample-period explore fleet-table4"},
		{groupBench,
			"cluster explore-bench fleet-bench gateway-failover kernel snapshot trace-codec",
			"trace-codec:BENCH_trace.json snapshot:BENCH_snapshot.json fleet-bench:BENCH_fleet.json kernel " +
				"cluster:BENCH_cluster.json gateway-failover:BENCH_gateway_failover.json explore-bench:BENCH_explore.json"},
	} {
		sel, unknown := selectRows(tc.group)
		var rows, jobs []string
		for id := range sel {
			rows = append(rows, id)
		}
		slices.Sort(rows)
		for _, j := range jobsOf(sel, options{}) {
			jobs = append(jobs, strings.TrimSuffix(j.id+":"+j.record, ":"))
		}
		if len(unknown) > 0 || strings.Join(rows, " ") != tc.rows || strings.Join(jobs, " ") != tc.jobs {
			t.Errorf("-exp %s selects rows %v (unknown %v) running jobs %v,\nwant rows %s running jobs %s",
				tc.group, rows, unknown, jobs, tc.rows, tc.jobs)
		}
	}
}
