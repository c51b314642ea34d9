package bench

import (
	"os"
	"strings"
	"testing"
)

func runs(workload, metric string, values ...float64) []Result {
	var rs []Result
	for _, v := range values {
		rs = append(rs, Result{Workload: workload, Metrics: Metrics{metric: {Value: v}}})
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	spec := Spec{EndToEnd: []SpecMetric{
		{Name: "op_ms_p50", Better: "lower", Bound: 0.10},
		{Name: "work_per_s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Better: "lower", Bound: 0.25},
	}}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"same", "op_ms_p50", steady, []float64{101, 100, 99, 103, 100}, Unchanged},
		{"slower", "op_ms_p50", steady, []float64{120, 121, 119, 122, 118}, Regressed},
		{"faster", "op_ms_p50", steady, []float64{80, 81, 79, 82, 78}, Improved},
		{"throughput down", "work_per_s", steady, []float64{80, 81, 79, 82, 78}, Regressed},
		{"throughput up", "work_per_s", steady, []float64{120, 121, 119, 122, 118}, Improved},
		{"noisy", "op_ms_p50", []float64{70, 100, 130, 90, 115}, []float64{75, 110, 140, 95, 120}, Unresolved},
		{"noisy but every run better", "op_ms_p50", []float64{100, 130, 160, 110, 150}, []float64{50, 60, 70, 55, 65}, Improved},
		// 25% of 10 ms is under the 20 ms floor.
		{"setup under floor", "setup_s", []float64{0.010, 0.010, 0.011}, []float64{0.016, 0.016, 0.017}, Unchanged},
		{"setup over floor", "setup_s", []float64{0.100, 0.100, 0.101}, []float64{0.150, 0.150, 0.151}, Regressed},
	} {
		rows := Compare(runs("w", c.metric, c.a...), runs("w", c.metric, c.b...), spec)
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("%s: %+v, want %s", c.name, rows, c.want)
		}
	}
}

func TestCompareIgnoresTracedRunsAndMissingMetrics(t *testing.T) {
	spec := Spec{EndToEnd: []SpecMetric{{Name: "op_ms_p50", Better: "lower", Bound: 0.1}, {Name: "peak_rss_mib", Better: "lower", Bound: 0.1}}}
	a := runs("w", "op_ms_p50", 10, 10, 10)
	b := runs("w", "op_ms_p50", 10, 10, 10)
	b = append(b, Result{Workload: "w", Traced: true, Metrics: Metrics{"op_ms_p50": {Value: 1000}}})
	rows := Compare(a, b, spec)
	if len(rows) != 1 || rows[0].Verdict != Unchanged {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestCompareMainExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("BENCHMARK.json", `{"end_to_end":[{"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.1}]}`)
	a := write("a.json", `{"runs":[{"workload":"w","metrics":{"op_ms_p50":{"value":10}}},{"workload":"w","metrics":{"op_ms_p50":{"value":10}}}]}`)
	b := write("b.json", `{"runs":[{"workload":"w","metrics":{"op_ms_p50":{"value":13}}},{"workload":"w","metrics":{"op_ms_p50":{"value":13}}}]}`)
	var out, errs strings.Builder
	if code := CompareMain([]string{"-spec", spec, a, a}, &out, &errs); code != 0 {
		t.Errorf("A vs A exit %d: %s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := CompareMain([]string{"-spec", spec, a, b}, &out, &errs); code != 1 || !strings.Contains(out.String(), Regressed) {
		t.Errorf("A vs slower B exit %d:\n%s", code, out.String())
	}
}
