package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Spec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and bound.
type Spec struct {
	EndToEnd []SpecMetric `json:"end_to_end"`
}

// SpecMetric is one end-to-end metric of BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the first side's median
}

// boundFloor is an absolute bound under which a change never counts:
// set-up times of a few milliseconds move by more than their share from
// scheduling alone.
var boundFloor = map[string]float64{"setup_s": 0.020}

// Verdicts of a comparison.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Comparison is one workload × metric row of a comparison.
type Comparison struct {
	Workload, Metric string
	A, B             [3]float64 // quartiles: q1, median, q3
	Delta            float64    // (median B - median A) / median A
	Bound            float64
	Verdict          string
}

// Compare compares two sets of runs metric by metric. The second side has
// regressed when its median is worse than the first's by more than the
// bound, and improved when better by more. When either side's spread
// (interquartile range over median) exceeds the bound the pair is
// unresolved — unless every run of one side beats every run of the other
// by more than the bound.
func Compare(a, b []Result, spec Spec) []Comparison {
	values := func(rs []Result, wl, metric string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && !r.Traced {
				v = append(v, m.Value)
			}
		}
		return v
	}
	var workloads []string
	seen := map[string]bool{}
	for _, r := range a {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	var out []Comparison
	for _, wl := range workloads {
		for _, sm := range spec.EndToEnd {
			va, vb := values(a, wl, sm.Name), values(b, wl, sm.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := Comparison{Workload: wl, Metric: sm.Name, Bound: sm.Bound}
			c.A[0], c.A[1], c.A[2] = Quartiles(va)
			c.B[0], c.B[1], c.B[2] = Quartiles(vb)
			sign := 1.0 // positive worse
			if sm.Better == "higher" {
				sign = -1
			}
			margin := max(sm.Bound*c.A[1], boundFloor[sm.Name])
			if c.A[1] != 0 {
				c.Delta = (c.B[1] - c.A[1]) / c.A[1]
			}
			worse := sign*(c.B[1]-c.A[1]) > margin
			better := sign*(c.A[1]-c.B[1]) > margin
			// Scaled so that larger is worse: does every run of one side
			// beat every run of the other by more than the margin?
			loA, hiA := extremes(va, sign)
			loB, hiB := extremes(vb, sign)
			allBetter := hiB+margin < loA
			allWorse := loB-margin > hiA
			noisy := Spread(va) > sm.Bound || Spread(vb) > sm.Bound
			switch {
			case allBetter || (better && !noisy):
				c.Verdict = Improved
			case allWorse || (worse && !noisy):
				c.Verdict = Regressed
			case noisy:
				c.Verdict = Unresolved
			default:
				c.Verdict = Unchanged
			}
			out = append(out, c)
		}
	}
	return out
}

// extremes returns the smallest and largest of sign·v over values.
func extremes(values []float64, sign float64) (lo, hi float64) {
	lo, hi = sign*values[0], sign*values[0]
	for _, v := range values[1:] {
		lo, hi = min(lo, sign*v), max(hi, sign*v)
	}
	return lo, hi
}

// CompareMain is the "compare A.json B.json" command. It exits 1 when any
// pair regressed.
func CompareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "BENCHMARK.json holding the bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var sides [2]ResultsFile
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sides[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	rows := Compare(sides[0].Runs, sides[1].Runs, spec)
	fmt.Fprintf(stdout, "%-16s %-14s %32s %32s %8s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "verdict")
	code := 0
	for _, c := range rows {
		fmt.Fprintf(stdout, "%-16s %-14s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] %+7.1f%% %6.0f%%  %s\n",
			c.Workload, c.Metric, c.A[1], c.A[0], c.A[2], c.B[1], c.B[0], c.B[2], 100*c.Delta, 100*c.Bound, c.Verdict)
		if c.Verdict == Regressed {
			code = 1
		}
	}
	return code
}

func loadSpec(path string) (Spec, error) {
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var spec Spec
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) && path == "" {
			continue
		}
		if err == nil {
			err = json.Unmarshal(data, &spec)
		}
		if err != nil {
			return spec, fmt.Errorf("bench compare: %s: %w", p, err)
		}
		return spec, nil
	}
	return spec, fmt.Errorf("bench compare: no BENCHMARK.json in . or ..")
}
