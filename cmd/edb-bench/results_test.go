package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// TestResultsPinned regenerates every single-tag experiment of
// `edb-bench -exp all -csv` at its default seed and compares each result
// file with the committed copy under results/, byte for byte. Only the
// fleet-scale Table 4 is left out (it takes most of the suite's time).
// Every text file must be committed; a CSV is compared when results/ holds
// it (the large figure dumps are not tracked).
//
// The paper-number tests check tolerance bands and the determinism tests
// compare runs of the same code with each other, so this is the test that
// fails when a change moves the simulated physics by a single bit. After a
// deliberate change to the physics or an RNG stream, regenerate the files
// with `go run ./cmd/edb-bench -exp all -csv` and review the diff.
func TestResultsPinned(t *testing.T) {
	const dir = "../../results"
	jobs := paperJobs(func(id string) bool { return id != "fleet" }, false, true, 0)
	outs, _ := parallel.Map(len(jobs), func(i int) (jobOut, error) {
		var o jobOut
		o.err = jobs[i].fn(&o)
		return o, nil
	})
	compared := 0
	for i, o := range outs {
		id := jobs[i].id
		if o.err != nil {
			t.Errorf("%s: %v", id, o.err)
			continue
		}
		for _, f := range o.resultFiles(id) {
			want, err := os.ReadFile(filepath.Join(dir, f.name))
			if err != nil {
				if strings.HasSuffix(f.name, ".csv") && os.IsNotExist(err) {
					continue
				}
				t.Errorf("%s: %v", id, err)
				continue
			}
			compared++
			if got := []byte(f.content); !bytes.Equal(got, want) {
				t.Errorf("%s: %s differs from the committed file:\n%s", id, f.name, firstDiff(got, want))
			}
		}
	}
	if compared == 0 {
		t.Fatal("no result files compared")
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
