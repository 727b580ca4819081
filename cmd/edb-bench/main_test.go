package main

import (
	"bytes"
	"strings"
	"testing"
)

// An -exp list with an unknown id runs nothing: run exits 2, names every
// unknown id and lists the known ones.
func TestUnknownExperimentIDs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2,tabel3, fig99", "-out", ""}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("experiments ran despite unknown ids:\n%s", stdout.String())
	}
	msg := stderr.String()
	for _, want := range []string{"tabel3, fig99", strings.Join(experimentIDs, "|")} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
}
