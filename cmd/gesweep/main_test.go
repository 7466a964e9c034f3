package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFigureRejected: a typo in -figures is an error naming it,
// raised before any figure runs, not a silently skipped figure.
func TestUnknownFigureRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	var stdout bytes.Buffer
	err := run([]string{"-out", dir, "-figures", "fig2,fgi4"}, &stdout)
	if err == nil || !strings.Contains(err.Error(), `"fgi4"`) {
		t.Fatalf("err = %v, want one naming fgi4", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) || stdout.Len() != 0 {
		t.Fatalf("a figure ran before the bad name was caught: stat %v, stdout %q", statErr, stdout.String())
	}
}

// TestFiguresSelection: ids match case-insensitively and write one CSV and
// one table per figure, with the target's note after it.
func TestFiguresSelection(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-out", dir, "-figures", " FIG2 "}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2_job_cutting.csv", "fig2_job_cutting.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
	if !strings.Contains(stdout.String(), "fig2: cut 2 jobs") {
		t.Errorf("stdout lacks fig2's note:\n%s", stdout.String())
	}
	for list, n := range map[string]int{"all": 12, "ablations": 7, "fig9,abl-static,ext-latency": 3} {
		if got, err := selectTargets(list); err != nil || len(got) != n {
			t.Errorf("-figures %s: %d targets, %v; want %d", list, len(got), err, n)
		}
	}
}
