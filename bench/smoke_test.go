package bench

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark command as the
// children's executable.
func TestMain(m *testing.M) {
	if os.Getenv(ChildEnv) == "1" {
		os.Exit(ChildMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// layerPrefixes are the per-layer metric families each workload reports
// besides go.*, cpu.* and trace.*.
var layerPrefixes = map[string][]string{
	"search-proof":   {"mcheck.", "sim.", "waitfor."},
	"search-spill":   {"mcheck.", "sim.", "waitfor."},
	"search-witness": {"mcheck.", "sim.", "waitfor."},
	"sim-load":       {"traffic.", "telemetry."},
	"static-analyze": {"routing.", "cdg.", "core."},
}

func expectedLayerMetrics(workload string) []MetricSpec {
	var out []MetricSpec
	for _, s := range PerLayer {
		switch {
		case s.Name == "mcheck.replay_ms" && workload != "search-witness":
			// Only the witness workload replays.
		case s.Name == "traffic.saturation_rate":
			// Needs a whole sweep; a quick run does three cells.
		case strings.HasPrefix(s.Name, "go."), strings.HasPrefix(s.Name, "cpu."), strings.HasPrefix(s.Name, "trace."):
			out = append(out, s)
		default:
			for _, p := range layerPrefixes[workload] {
				if strings.HasPrefix(s.Name, p) {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// TestSmokeEveryWorkload runs every workload for three ops, untraced and
// traced, in child processes of this test binary.
func TestSmokeEveryWorkload(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "trace")
	for _, wl := range Workloads {
		for _, traced := range []bool{false, true} {
			cfg := RunConfig{Exe: exe, Seed: 1, Quick: true, Trace: traced, TraceDir: traceDir, Dir: filepath.Join(dir, "scratch"), Stderr: io.Discard}
			res, err := Run(cfg, wl)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", wl.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.Metrics["failed_frac"].Value != 0 {
				t.Errorf("%s traced=%t: %d of %d failed: %v", wl.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			specs := EndToEnd
			if traced {
				specs = expectedLayerMetrics(wl.Name)
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", wl.Name, traced, s.Name, m, s.Unit)
				}
			}
			if !traced {
				for _, s := range EndToEnd {
					if res.Metrics[s.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, want > 0", wl.Name, s.Name, res.Metrics[s.Name].Value)
					}
				}
			}
		}
		for _, suffix := range []string{".trace.json", ".cpu.pprof"} {
			if _, err := os.Stat(filepath.Join(traceDir, wl.Name+suffix)); err != nil {
				t.Errorf("%s: %v", wl.Name, err)
			}
		}
	}

	data, err := os.ReadFile(filepath.Join(traceDir, "layers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var layers map[string]map[string]map[string]float64
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	for _, wl := range Workloads {
		for kind, shares := range layers[wl.Name] {
			sum := 0.0
			for _, v := range shares {
				sum += v
			}
			// An empty CPU profile has no shares to sum.
			if math.Abs(sum-1) > 1e-9 && !(strings.HasPrefix(kind, "cpu_") && sum == 0) {
				t.Errorf("%s %s sums to %g: %v", wl.Name, kind, sum, shares)
			}
		}
		if len(layers[wl.Name]) != 3 {
			t.Errorf("layers.json[%s] = %v, want three share maps", wl.Name, layers[wl.Name])
		}
	}
}

// TestSummaryLine checks the last line of standard output: exactly the
// keys correct, attempted, failed and metrics, and every end-to-end metric.
func TestSummaryLine(t *testing.T) {
	dir := t.TempDir()
	var out, errs strings.Builder
	code := Main([]string{"-quick", "-workload", "search-proof", "-seed", "7", "-trace-dir", filepath.Join(dir, "t"), "-dir", filepath.Join(dir, "s")}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("summary keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]Metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(EndToEnd) {
		t.Errorf("metrics %v, want exactly the end-to-end set", metrics)
	}
	for _, s := range EndToEnd {
		if m := metrics[s.Name]; m.Unit != s.Unit || m.Value <= 0 {
			t.Errorf("%s = %+v", s.Name, m)
		}
	}
	if !strings.Contains(errs.String(), "op_ms_p50") || !strings.Contains(errs.String(), "n=3") {
		t.Errorf("table lacks metric names or sample counts:\n%s", errs.String())
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the code's
// workload and metric lists in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no ../BENCHMARK.json")
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []SpecMetric `json:"end_to_end"`
		PerLayer  []MetricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	for _, s := range doc.EndToEnd {
		got = append(got, s.Name+" "+s.Unit)
	}
	for _, s := range EndToEnd {
		want = append(want, s.Name+" "+s.Unit)
	}
	for _, s := range doc.PerLayer {
		got = append(got, s.Name+" "+s.Unit)
	}
	for _, s := range PerLayer {
		want = append(want, s.Name+" "+s.Unit)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json lists\n%s\nthe code has\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
