package mcheck

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obsv"
	"repro/internal/papernets"
)

// TestSearchMetricsGolden pins the metrics exposition both search engines
// write, byte for byte. Each search reports into a fresh registry wired
// the way the command-line observer wires it: the registry as
// SearchOptions.Metrics and a MetricsSink over it as the tracer. The mem
// backend keeps every gauge process-independent (spill run counts follow
// the per-process shard hash seed).
func TestSearchMetricsGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		net      *papernets.Net
		opts     SearchOptions
		liveness bool
		want     Verdict
	}{
		{name: "e1_search", net: papernets.Figure1(),
			opts: SearchOptions{FreezeInTransitOnly: true, Parallelism: 1}, want: VerdictNoDeadlock},
		{name: "e1_liveness", net: papernets.Figure1(),
			opts: SearchOptions{FreezeInTransitOnly: true, Parallelism: 1}, liveness: true, want: VerdictNoDeadlock},
		{name: "gen3_stall3_all_w2", net: papernets.GenK(3),
			opts: SearchOptions{StallBudget: 3, FreezeInTransitOnly: true, Reduction: RedAll, Parallelism: 2},
			want: VerdictDeadlock},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obsv.NewRegistry()
			opts := tc.opts
			opts.Metrics = reg
			opts.Tracer = obsv.NewMetricsSink(reg)
			run := Search
			if tc.liveness {
				run = SearchLiveness
			}
			if res := run(tc.net.Scenario, opts); res.Verdict != tc.want {
				t.Fatalf("verdict = %v, want %v", res.Verdict, tc.want)
			}
			var prom, js bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			if err := reg.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			for file, got := range map[string][]byte{
				tc.name + "_metrics.prom": prom.Bytes(),
				tc.name + "_metrics.json": js.Bytes(),
			} {
				want, err := os.ReadFile(filepath.Join("testdata", file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs:\n%s\n--- want ---\n%s", file, got, want)
				}
			}
		})
	}
}
