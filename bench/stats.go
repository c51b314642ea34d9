package bench

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 < p < 100) of values, sorting
// a copy. Ranks interpolate linearly at position p/100·(n+1), clamped to
// the sample range — the "exclusive" rule of Python's
// statistics.quantiles, so quartiles printed here match the ones the
// spread check computes from the same values.
func Percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p / 100 * float64(n+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(n) {
		return s[n-1]
	}
	lo := int(pos) // 1-based rank below pos
	frac := pos - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

// Median is Percentile(values, 50).
func Median(values []float64) float64 { return Percentile(values, 50) }

// Quartiles returns the first quartile, the median and the third quartile.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	return Percentile(values, 25), Percentile(values, 50), Percentile(values, 75)
}

// Spread is the interquartile range as a share of the median: the
// run-to-run noise measure bounds are compared against.
func Spread(values []float64) float64 {
	q1, q2, q3 := Quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder lists the percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// TailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, and false when n is too small for
// even the median to qualify.
func TailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// SampleNote renders the sample count behind a timing percentile, and
// flags a percentile that fewer than ten samples lie beyond.
func SampleNote(p float64, n int) string {
	if top, ok := TailPercentile(n); !ok || p > top {
		return fmt.Sprintf("n=%d, fewer than 10 samples beyond p%g", n, p)
	}
	return fmt.Sprintf("n=%d", n)
}
