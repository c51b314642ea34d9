// Command bench is the repository's benchmark: it measures each workload
// in a fresh child process and prints every metric with its unit and
// sample count, then one JSON summary line on standard output.
//
//	go run ./cmd/bench                          # all workloads, untraced
//	go run ./cmd/bench -workload search-proof -seed 7
//	go run ./cmd/bench -trace 1 -trace-dir out  # per-layer metrics, spans, profiles
//	go run ./cmd/bench -runs 5 -o a.json        # five runs of every workload
//	go run ./cmd/bench compare a.json b.json    # regression verdicts
//
// Run it from the bench directory (or through run.sh from the repository
// root); see README.md for the workloads and metrics.
package main

import (
	"os"

	"repro/bench"
)

func main() {
	if os.Getenv(bench.ChildEnv) == "1" {
		os.Exit(bench.ChildMain(os.Args[1:], os.Stdout))
	}
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
