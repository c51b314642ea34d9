package repro

// BenchmarkRows times every row of the benchmark registry
// (internal/benchrows): the experiments of DESIGN.md's index, the
// ablations and the microbenchmarks. Each row checks its own verdict and
// state count, so a bench run doubles as a reproduction run.
//
//	go test -run '^$' -bench 'Rows/E1_' .

import (
	"testing"

	"repro/internal/benchrows"
)

func BenchmarkRows(b *testing.B) {
	for _, row := range benchrows.Rows() {
		b.Run(row.Name, row.Bench)
	}
}
