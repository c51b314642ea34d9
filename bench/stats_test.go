package bench

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileMatchesExclusiveQuantiles(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles(v)
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
	if got := Percentile(v, 100); got != 10 {
		t.Errorf("p100 = %g, want the maximum", got)
	}
	if got := Percentile(v, 1); got != 1 {
		t.Errorf("p1 = %g, want the minimum (clamped)", got)
	}
	if got := Spread(v); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %g", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

// The reportable tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %g, %t; want %g, %t", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSampleNote(t *testing.T) {
	if got := SampleNote(90, 217); got != "n=217" {
		t.Errorf("SampleNote(90, 217) = %q", got)
	}
	if got := SampleNote(90, 99); !strings.Contains(got, "n=99") || !strings.Contains(got, "fewer than 10") {
		t.Errorf("SampleNote(90, 99) = %q, want the count and a warning", got)
	}
}

func TestPrintTableShowsUnitsAndSamples(t *testing.T) {
	var b strings.Builder
	m := Metrics{}
	m.set("op_ms_p50", 12.5, "ms", 150)
	m.set("op_ms_p90", 20, "ms", 50)
	PrintTable(&b, "w", m, EndToEnd)
	out := b.String()
	for _, want := range []string{"op_ms_p50", "12.5", "ms", "n=150", "op_ms_p90", "fewer than 10 samples beyond p90"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
}
