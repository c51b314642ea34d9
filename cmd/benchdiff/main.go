// Command benchdiff compares the states/sec column of two benchjson
// artifacts and fails on a throughput collapse. Rows are matched by
// benchmark name; a row whose states/sec drops by more than -tolerance is
// a regression. The comparison prints as a markdown table, and the exit
// status is 1 iff at least one row regressed, so CI can gate on it
// directly.
//
// Everything deterministic about a row is pinned by Go tests instead:
// state counts and verdicts by the registry in internal/benchrows, and
// allocations by exact testing.AllocsPerRun budgets (TestRowBudgets).
// Throughput is the one column only two measured artifacts can compare.
//
//	benchdiff BENCH_mcheck.json BENCH_ci.json
//	benchdiff -tolerance 0.5 BENCH_mcheck.json BENCH_ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// loadPoints reads the states/sec of every row of a benchjson file.
// Rows without a state count read as 0.
func loadPoints(path string) (map[string]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf struct {
		Entries []struct {
			Name         string `json:"name"`
			StatesPerSec int64  `json:"states_per_sec"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil || len(bf.Entries) == 0 {
		return nil, fmt.Errorf("%s is not a benchjson file", path)
	}
	points := make(map[string]int64, len(bf.Entries))
	for _, e := range bf.Entries {
		points[e.Name] = e.StatesPerSec
	}
	return points, nil
}

// row is one rendered comparison line.
type row struct {
	name      string
	old, new_ int64   // states/sec
	delta     float64 // fractional change, new/old - 1
	status    string  // "ok", "REGRESSION", "added", "removed"
	regressed bool
}

// diff compares two point sets. tol bounds the allowed fractional
// states/sec drop.
func diff(old, new_ map[string]int64, tol float64) []row {
	names := make(map[string]struct{}, len(old)+len(new_))
	for n := range old {
		names[n] = struct{}{}
	}
	for n := range new_ {
		names[n] = struct{}{}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var rows []row
	for _, n := range sorted {
		o, haveOld := old[n]
		c, haveNew := new_[n]
		r := row{name: n, old: o, new_: c, status: "ok"}
		switch {
		case !haveOld:
			r.status = "added"
		case !haveNew:
			r.status = "removed"
		case o > 0 && c > 0:
			r.delta = float64(c)/float64(o) - 1
			if float64(c) < float64(o)*(1-tol) {
				r.regressed = true
				r.status = "REGRESSION"
			}
		}
		rows = append(rows, r)
	}
	return rows
}

func fmtCount(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// renderMarkdown prints the comparison table.
func renderMarkdown(w *strings.Builder, rows []row) {
	fmt.Fprintln(w, "| benchmark | states/sec (old) | states/sec (new) | Δ | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|")
	for _, r := range rows {
		delta := "-"
		if r.old > 0 && r.new_ > 0 {
			delta = fmt.Sprintf("%+.1f%%", r.delta*100)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			r.name, fmtCount(r.old), fmtCount(r.new_), delta, r.status)
	}
}

func main() {
	tol := flag.Float64("tolerance", 0.2, "allowed fractional states/sec drop before a row counts as regressed")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance F] OLD NEW  (each a benchjson file)")
		os.Exit(2)
	}
	old, err := loadPoints(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := loadPoints(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	rows := diff(old, cur, *tol)
	var sb strings.Builder
	renderMarkdown(&sb, rows)
	os.Stdout.WriteString(sb.String())

	regressed := 0
	for _, r := range rows {
		if r.regressed {
			regressed++
		}
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) beyond tolerance (states/sec -%.0f%%)\n", regressed, *tol*100)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: no regressions across %d row(s)\n", len(rows))
}
