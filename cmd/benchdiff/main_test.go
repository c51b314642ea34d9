package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name, blob string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseBench = `{
  "go_max_procs": 4,
  "search_workers": 4,
  "benchmarks": [
    {"name": "E1_Figure1_Search", "ns_per_op": 2000000, "allocs_per_op": 9000, "bytes_per_op": 1000000, "states": 2996, "states_per_sec": 1498000, "verdict": "no-deadlock"},
    {"name": "EncodeTo", "ns_per_op": 120, "allocs_per_op": 0, "bytes_per_op": 0}
  ]
}`

func TestIdenticalInputsPass(t *testing.T) {
	dir := t.TempDir()
	a := writeBench(t, dir, "a.json", baseBench)
	old, err := loadPoints(a)
	if err != nil {
		t.Fatal(err)
	}
	rows := diff(old, old, 0.2)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.regressed || r.status != "ok" {
			t.Errorf("identical inputs flagged: %+v", r)
		}
	}
}

func TestThroughputRegressionDetected(t *testing.T) {
	dir := t.TempDir()
	slower := strings.Replace(baseBench, `"states_per_sec": 1498000`, `"states_per_sec": 749000`, 1)
	old, err := loadPoints(writeBench(t, dir, "old.json", baseBench))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadPoints(writeBench(t, dir, "new.json", slower))
	if err != nil {
		t.Fatal(err)
	}
	// A 2x slowdown must trip even a generous 40% tolerance...
	rows := diff(old, cur, 0.4)
	var hit bool
	for _, r := range rows {
		if r.name == "E1_Figure1_Search" && r.regressed {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("2x states/sec drop not flagged: %+v", rows)
	}
	// ...and pass a tolerance that explicitly allows halving.
	for _, r := range diff(old, cur, 0.6) {
		if r.regressed {
			t.Errorf("drop within tolerance flagged: %+v", r)
		}
	}
}

func TestAddedAndRemovedRowsAreNotRegressions(t *testing.T) {
	dir := t.TempDir()
	extra := strings.Replace(baseBench, `    {"name": "EncodeTo"`,
		`    {"name": "Gen9_Stall9", "ns_per_op": 5, "allocs_per_op": 1, "states": 10, "states_per_sec": 100},
    {"name": "EncodeTo"`, 1)
	old, err := loadPoints(writeBench(t, dir, "old.json", baseBench))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadPoints(writeBench(t, dir, "new.json", extra))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range diff(old, cur, 0.2) {
		if r.regressed {
			t.Errorf("added row treated as regression: %+v", r)
		}
		if r.name == "Gen9_Stall9" && r.status != "added" {
			t.Errorf("status = %q, want added", r.status)
		}
	}
	for _, r := range diff(cur, old, 0.2) {
		if r.name == "Gen9_Stall9" && (r.status != "removed" || r.regressed) {
			t.Errorf("removed row: %+v", r)
		}
	}
}

func TestRenderMarkdownShape(t *testing.T) {
	old, _ := loadPoints(writeBench(t, t.TempDir(), "b.json", baseBench))
	rows := diff(old, old, 0.2)
	var sb strings.Builder
	renderMarkdown(&sb, rows)
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+len(rows) {
		t.Fatalf("markdown lines = %d, want header+separator+%d rows:\n%s", len(lines), len(rows), out)
	}
	if !strings.HasPrefix(lines[0], "| benchmark |") || !strings.Contains(out, "| E1_Figure1_Search |") {
		t.Errorf("table shape:\n%s", out)
	}
}
