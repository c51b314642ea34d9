// Command benchjson times every row of the benchmark registry
// (internal/benchrows) through testing.Benchmark and writes the results
// as BENCH_mcheck.json. The JSON is byte-stable: fixed entry order, fixed
// field order, integral values — only the measured numbers change between
// runs, so diffs of the artifact read as perf deltas. Each search row's
// verdict and state count are checked against the registry before it is
// timed; a wrong outcome (or a panic) exits nonzero, which is what the CI
// bench job keys off.
//
//	benchjson            # writes ./BENCH_mcheck.json
//	benchjson -o -       # writes to stdout
//	benchjson -quick     # ~10x faster, noisier numbers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/benchrows"
	"repro/internal/cli"
	"repro/internal/mcheck"
	"repro/internal/obsv/manifest"
	"repro/internal/obsv/serve"
)

type entry struct {
	Name         string `json:"name"`
	NsPerOp      int64  `json:"ns_per_op"`
	AllocsPerOp  int64  `json:"allocs_per_op"`
	BytesPerOp   int64  `json:"bytes_per_op"`
	States       int    `json:"states,omitempty"`
	StatesPerSec int64  `json:"states_per_sec,omitempty"`
	Verdict      string `json:"verdict,omitempty"`
	Reduction    string `json:"reduction,omitempty"`
	StatesPruned int    `json:"states_pruned,omitempty"`
	// Visited-set backend accounting, recorded for non-default backends.
	// Unlike the state counts, spill bytes vary by a few percent from run
	// to run.
	VisitedBackend string `json:"visited_backend,omitempty"`
	SpillBytes     int64  `json:"spill_bytes,omitempty"`
}

type report struct {
	GoMaxProcs int     `json:"go_max_procs"`
	Workers    int     `json:"search_workers"`
	Entries    []entry `json:"benchmarks"`
}

var (
	quick = flag.Bool("quick", false, "run each benchmark for ~0.1s instead of ~1s")
	obsvF = cli.RegisterObsvFlags()
	obs   *cli.Observer
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// probe runs a row's searches once, reporting through the observability
// sinks, and checks them against the registry. The timed loop runs with
// the registry's exact options, so tracing or serving never perturbs the
// measured numbers. A row with one search records its verdict, and a row
// records the reductions any of its searches applied.
func probe(row benchrows.Row) entry {
	e := entry{Name: row.Name}
	red := mcheck.RedNone
	for _, s := range row.Searches {
		opts := s.Options
		opts.Tracer = obs.Tracer
		opts.Metrics = obs.Metrics
		opts.Progress = obs.SearchProgress(row.Name)
		res, err := s.Run(opts)
		if err != nil {
			fail("%s: %v", row.Name, err)
		}
		e.States += res.States
		if len(row.Searches) == 1 {
			e.Verdict = res.Verdict.String()
		}
		red |= res.Reduction
		e.StatesPruned += res.StatesPruned
		if v := res.Visited; v.Backend != "" && v.Backend != "mem" {
			e.VisitedBackend = v.Backend
			e.SpillBytes += v.SpillBytes
		}
	}
	if red != mcheck.RedNone {
		e.Reduction = red.String()
	}
	return e
}

func main() {
	testing.Init() // registers test.benchtime so quick mode can shrink it
	out := flag.String("o", "BENCH_mcheck.json", "output path, or - for stdout")
	flag.Parse()
	if *quick {
		if err := flag.Set("test.benchtime", "100ms"); err != nil {
			fail("set benchtime: %v", err)
		}
	}

	var err error
	obs, err = obsvF.Open("benchjson", nil)
	if err != nil {
		fail("%v", err)
	}

	rep := report{GoMaxProcs: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0)}
	for _, row := range benchrows.Rows() {
		e := probe(row)
		r := testing.Benchmark(row.Bench)
		if r.N == 0 {
			fail("%s: the op failed", row.Name)
		}
		e.NsPerOp, e.AllocsPerOp, e.BytesPerOp = r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp()
		if e.States > 0 && e.NsPerOp > 0 {
			e.StatesPerSec = int64(float64(e.States) / (float64(e.NsPerOp) / 1e9))
		}
		rep.Entries = append(rep.Entries, e)
		obs.RecordRun(manifest.Run{
			Name: e.Name, Verdict: e.Verdict,
			States: e.States, StatesPerSec: e.StatesPerSec,
			NsPerOp: e.NsPerOp, AllocsPerOp: e.AllocsPerOp, BytesPerOp: e.BytesPerOp,
			Reduction: e.Reduction, StatesPruned: e.StatesPruned,
			VisitedBackend: e.VisitedBackend, SpillBytes: e.SpillBytes,
		})
		obs.Publish(serve.Snapshot{Source: "run", Name: e.Name, States: e.States, StatesPerSec: e.StatesPerSec})
		fmt.Fprintf(os.Stderr, "%-32s %12d ns/op %10d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
		if e.StatesPerSec > 0 {
			fmt.Fprintf(os.Stderr, " %10d states/sec", e.StatesPerSec)
		}
		fmt.Fprintln(os.Stderr)
	}

	if err := obs.Close(); err != nil {
		fail("%v", err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("marshal: %v", err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fail("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
