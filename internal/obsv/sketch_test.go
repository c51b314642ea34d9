package obsv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sliceQuantile is the raw-sample nearest-rank rule the sketch replaces
// (the one traffic.Load used on its grow-forever latency slice): the
// smallest sample such that at least p% of samples are <= it.
func sliceQuantile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestSketchQuantileExactInLinearRange: for any sample set within the
// lossless linear range the sketch must reproduce the raw-slice
// nearest-rank quantiles exactly — the property that keeps loadtest's
// JSON byte-identical after the slice-to-sketch swap.
func TestSketchQuantileExactInLinearRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		s := NewSketch()
		samples := make([]int, n)
		for i := range samples {
			samples[i] = rng.Intn(sketchLinearMax)
			s.Add(samples[i])
		}
		sort.Ints(samples)
		for _, p := range []int{0, 1, 25, 50, 90, 95, 99, 100} {
			if got, want := s.Quantile(p), sliceQuantile(samples, p); got != want {
				t.Fatalf("trial %d n=%d p%d: sketch %d, slice %d", trial, n, p, got, want)
			}
		}
		if got, want := s.Max(), samples[n-1]; got != want {
			t.Fatalf("Max = %d, want %d", got, want)
		}
		if got, want := s.Min(), samples[0]; got != want {
			t.Fatalf("Min = %d, want %d", got, want)
		}
	}
}

// TestSketchTailRelativeError: above the linear range the sketch is
// lossy but bounded — a quantile may overestimate by at most one
// sub-bucket width (relative error 1/sketchSubBuckets) and never
// underestimates the true nearest-rank value.
func TestSketchTailRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSketch()
	var samples []int
	for i := 0; i < 5000; i++ {
		v := sketchLinearMax + rng.Intn(1<<28)
		samples = append(samples, v)
		s.Add(v)
	}
	sort.Ints(samples)
	for _, p := range []int{50, 95, 99} {
		want := sliceQuantile(samples, p)
		got := s.Quantile(p)
		if got < want {
			t.Fatalf("p%d: sketch %d underestimates true %d", p, got, want)
		}
		if float64(got-want) > float64(want)/float64(sketchSubBuckets)+1 {
			t.Fatalf("p%d: sketch %d vs true %d exceeds 1/%d relative error", p, got, want, sketchSubBuckets)
		}
	}
	// The top rank still reports the exact max.
	if got := s.Quantile(100); got != samples[len(samples)-1] {
		t.Fatalf("p100 = %d, want exact max %d", got, samples[len(samples)-1])
	}
}

// TestSketchLogIndexRoundTrip: every log bucket's inclusive upper bound
// must map back into that bucket, and bucket boundaries must be
// monotone — the invariants Quantile's conservative reporting relies on.
func TestSketchLogIndexRoundTrip(t *testing.T) {
	prev := sketchLinearMax - 1
	for i := 0; i < sketchLogBuckets-1; i++ { // last bucket clamps, skip
		up := logUpper(i)
		if logIndex(up) != i {
			t.Fatalf("bucket %d: upper bound %d maps to bucket %d", i, up, logIndex(up))
		}
		if up <= prev {
			t.Fatalf("bucket %d: upper bound %d not above previous %d", i, up, prev)
		}
		if logIndex(up+1) != i+1 {
			t.Fatalf("bucket %d: %d (upper+1) maps to bucket %d, want %d", i, up+1, logIndex(up+1), i+1)
		}
		prev = up
	}
	if logIndex(sketchLinearMax) != 0 {
		t.Fatalf("first out-of-linear value maps to bucket %d", logIndex(sketchLinearMax))
	}
}

// TestSketchJSONDeterministic: identical sample sequences render to
// identical bytes, and Reset returns the sketch to the empty rendering.
func TestSketchJSONDeterministic(t *testing.T) {
	feed := func(s *Sketch) {
		for i := 0; i < 1000; i++ {
			s.Add(i * 73 % 70000)
		}
	}
	a, b := NewSketch(), NewSketch()
	feed(a)
	feed(b)
	ja, jb := a.AppendJSON(nil), b.AppendJSON(nil)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("identical streams render differently:\n%s\n%s", ja, jb)
	}
	empty := NewSketch().AppendJSON(nil)
	a.Reset()
	if !bytes.Equal(a.AppendJSON(nil), empty) {
		t.Fatalf("Reset sketch renders %s, want %s", a.AppendJSON(nil), empty)
	}
}

// TestSketchEdgeCases: negative clamping, AddN weights, empty queries.
func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch()
	if s.Quantile(50) != 0 || s.Max() != 0 || s.Min() != 0 || s.Mean() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	s.Add(-5)
	if s.Min() != 0 || s.Max() != 0 || s.Count() != 1 {
		t.Fatalf("negative sample must clamp to 0: %+v", s)
	}
	s.AddN(10, 9)
	if s.Count() != 10 || s.Sum() != 90 {
		t.Fatalf("AddN: count %d sum %d", s.Count(), s.Sum())
	}
	if s.Quantile(50) != 10 {
		t.Fatalf("p50 of one 0 and nine 10s = %d, want 10", s.Quantile(50))
	}
	s.AddN(99, 0) // no-op
	if s.Count() != 10 {
		t.Fatal("AddN with n<=0 must be a no-op")
	}
}

// TestSketchLinearBoundary: samples straddling the exact/log-linear
// boundary at 2^16 keep exact counts on the linear side.
func TestSketchLinearBoundary(t *testing.T) {
	s := NewSketch()
	for range 2 {
		for _, v := range []int{sketchLinearMax - 2, sketchLinearMax - 1, sketchLinearMax, sketchLinearMax + 1} {
			s.Add(v)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count %d, want 8", s.Count())
	}
	// Below the boundary the sketch is lossless: quantiles landing there
	// must return the exact values, doubled counts notwithstanding.
	if q := s.Quantile(25); q != sketchLinearMax-2 {
		t.Fatalf("p25 = %d, want exact %d", q, sketchLinearMax-2)
	}
	if q := s.Quantile(50); q != sketchLinearMax-1 {
		t.Fatalf("p50 = %d, want exact %d", q, sketchLinearMax-1)
	}
	// At and above the boundary values live in log buckets; the answer
	// may round up within the bucket but never below the true value.
	if q := s.Quantile(75); q < sketchLinearMax {
		t.Fatalf("p75 = %d, below the boundary value %d", q, sketchLinearMax)
	}
	if s.Max() != sketchLinearMax+1 {
		t.Fatalf("max %d, want %d", s.Max(), sketchLinearMax+1)
	}
}

// TestSketchQuantileMonotonic: quantiles of a sketch holding linear-range
// mass, tail mass and a low spike are monotone in p and stay within the
// samples' range.
func TestSketchQuantileMonotonic(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 3000; i++ {
		s.Add(i * 37 % 50_000)     // linear-range mass
		s.Add(1 << 20 * (i%5 + 1)) // tail mass
		s.Add(i % 100)             // plus a low spike
	}
	prev := -1
	for p := 1; p <= 100; p++ {
		q := s.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone: p%d=%d < p%d=%d", p, q, p-1, prev)
		}
		prev = q
		if q < s.Min() || q > s.Max() {
			t.Fatalf("p%d = %d outside the samples' range [%d, %d]", p, q, s.Min(), s.Max())
		}
	}
}

// denseSketch is the fixed layout Sketch had before its buckets became
// range-sized: every exact and log-linear bucket allocated up front. It is
// the reference the range-sized sketch must match sample for sample.
type denseSketch struct {
	linear   [sketchLinearMax]uint32
	logs     [sketchLogBuckets]uint32
	count    int64
	sum      int64
	max, min int
}

func newDense() *denseSketch { return &denseSketch{min: -1} }

func (d *denseSketch) AddN(v int, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if v < sketchLinearMax {
		d.linear[v] += uint32(n)
	} else {
		d.logs[logIndex(v)] += uint32(n)
	}
	d.count += n
	d.sum += int64(v) * n
	if v > d.max {
		d.max = v
	}
	if d.min < 0 || v < d.min {
		d.min = v
	}
}

func (d *denseSketch) Min() int { return max(d.min, 0) }

// quantiles returns every integer percentile 0..100 by the nearest-rank
// rule in one walk over the buckets (ranks grow with p).
func (d *denseSketch) quantiles() (q [101]int) {
	if d.count == 0 {
		return q
	}
	p := 0
	var seen int64
	settle := func(v int) {
		for ; p <= 100 && seen >= min(max((int64(p)*d.count+99)/100, 1), d.count); p++ {
			q[p] = v
		}
	}
	for v, c := range d.linear {
		seen += int64(c)
		if c != 0 {
			settle(v)
		}
	}
	for i, c := range d.logs {
		seen += int64(c)
		if c == 0 {
			continue
		}
		if seen == d.count {
			settle(d.max) // the last occupied bucket reports the exact max
		} else {
			settle(logUpper(i))
		}
	}
	return q
}

func (d *denseSketch) AppendJSON(b []byte) []byte {
	q := d.quantiles()
	b = fmt.Appendf(b, `{"count":%d,"sum":%d,"min":%d,"max":%d,"p50":%d,"p95":%d,"p99":%d,"buckets":[`,
		d.count, d.sum, d.Min(), d.max, q[50], q[95], q[99])
	sep := ""
	for v, c := range d.linear {
		if c != 0 {
			b = fmt.Appendf(b, "%s[%d,%d]", sep, v, c)
			sep = ","
		}
	}
	for i, c := range d.logs {
		if c != 0 {
			b = fmt.Appendf(b, "%s[%d,%d]", sep, logUpper(i), c)
			sep = ","
		}
	}
	return append(b, `]}`...)
}

// sketchPair feeds one sample stream to a range-sized sketch and to the
// dense reference.
type sketchPair struct {
	s *Sketch
	d *denseSketch
}

func newSketchPair() sketchPair { return sketchPair{NewSketch(), newDense()} }

func (p sketchPair) addN(v int, n int64) {
	p.s.AddN(v, n)
	p.d.AddN(v, n)
}

func (p sketchPair) check(t *testing.T, what string) {
	t.Helper()
	s, d := p.s, p.d
	if s.Count() != d.count || s.Sum() != d.sum || s.Min() != d.Min() || s.Max() != d.max {
		t.Fatalf("%s: count/sum/min/max %d/%d/%d/%d, reference %d/%d/%d/%d",
			what, s.Count(), s.Sum(), s.Min(), s.Max(), d.count, d.sum, d.Min(), d.max)
	}
	for q, want := range d.quantiles() {
		if got := s.Quantile(q); got != want {
			t.Fatalf("%s: p%d = %d, reference %d", what, q, got, want)
		}
	}
	if got, want := s.AppendJSON(nil), d.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: JSON differs from the reference:\n%s\n%s", what, got, want)
	}
}

// sketchRegimes draw samples from the ranges the sketch treats
// differently: inside the first allocation, across the doubling linear
// range, straddling the 2¹⁶ exact/log-linear boundary, and in the tail.
var sketchRegimes = []struct {
	name string
	draw func(*rand.Rand) int
}{
	{"small", func(r *rand.Rand) int { return r.Intn(sketchLinearMin) }},
	{"linear", func(r *rand.Rand) int { return r.Intn(sketchLinearMax) }},
	{"boundary", func(r *rand.Rand) int { return sketchLinearMax - 2 + r.Intn(4) }},
	{"tail", func(r *rand.Rand) int { return sketchLinearMax + r.Intn(1<<40) }},
	{"mixed", func(r *rand.Rand) int {
		switch r.Intn(4) {
		case 0:
			return r.Intn(64) - 8 // including negatives, which clamp to 0
		case 1:
			return r.Intn(1 << (8 + r.Intn(9)))
		case 2:
			return sketchLinearMax - 1 + r.Intn(2)
		}
		return sketchLinearMax + r.Intn(1<<(1+r.Intn(46)))
	}},
}

// feedPair adds n samples of one regime, some of them weighted.
func feedPair(p sketchPair, rng *rand.Rand, draw func(*rand.Rand) int, n int) {
	for i := 0; i < n; i++ {
		w := int64(1)
		if rng.Intn(8) == 0 {
			w = int64(rng.Intn(5)) // zero weights are no-ops on both sides
		}
		p.addN(draw(rng), w)
	}
}

// TestSketchMatchesDenseReference: the range-sized sketch must agree with
// the dense fixed layout on every observable — Count, Sum, Min, Max, every
// integer quantile and the JSON bytes — over seeded streams in every
// regime, over a stream that moves from one regime to another (so the
// buckets grow mid-stream), and after a Reset and a refill.
func TestSketchMatchesDenseReference(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < trials; trial++ {
		for _, ra := range sketchRegimes {
			for _, rb := range sketchRegimes {
				p := newSketchPair()
				what := fmt.Sprintf("trial %d %s then %s", trial, ra.name, rb.name)
				feedPair(p, rng, ra.draw, rng.Intn(300))
				p.check(t, what+": first regime")
				feedPair(p, rng, rb.draw, rng.Intn(300))
				p.check(t, what+": both regimes")

				// A Reset sketch keeps its range and must behave as new.
				p.s.Reset()
				p.d = newDense()
				p.check(t, what+": reset")
				feedPair(p, rng, ra.draw, rng.Intn(50))
				p.check(t, what+": reset then refill")
			}
		}
	}
	// The exact/log-linear boundary values on their own.
	p := newSketchPair()
	for _, v := range []int{sketchLinearMax - 1, sketchLinearMax, sketchLinearMax - 1, sketchLinearMax + 1} {
		p.addN(v, 1)
		p.check(t, fmt.Sprintf("boundary %d", v))
	}
}

// TestSketchSizedToRange: a sketch's buckets follow the largest sample it
// has seen, not the fixed 2¹⁶-entry layout: ten thousand latencies below
// 1,000 cycles fit in 4 KiB, a larger sample grows the exact buckets to
// cover it, and the tail is allocated only once a sample reaches it.
func TestSketchSizedToRange(t *testing.T) {
	bucketBytes := func(s *Sketch) int { return 4 * (cap(s.linear) + cap(s.logs)) }
	if n := bucketBytes(NewSketch()); n != 0 {
		t.Fatalf("NewSketch holds %d bytes of buckets, want 0", n)
	}
	rng := rand.New(rand.NewSource(1))
	s := NewSketch()
	for i := 0; i < 10_000; i++ {
		s.Add(rng.Intn(1000))
	}
	if n := bucketBytes(s); n > 4<<10 {
		t.Fatalf("10⁴ samples below 1,000 hold %d bytes of buckets, want <= 4 KiB", n)
	}
	if s.logs != nil {
		t.Fatal("tail buckets allocated with no sample at or above 2¹⁶")
	}
	s.Add(40_000)
	if len(s.linear) != 1<<16 || s.logs != nil {
		t.Fatalf("after a sample at 40,000: %d exact buckets (want 65,536), tail allocated %v",
			len(s.linear), s.logs != nil)
	}
	s.Add(sketchLinearMax)
	if len(s.logs) != sketchLogBuckets || len(s.linear) != sketchLinearMax {
		t.Fatalf("after a tail sample: %d exact and %d tail buckets", len(s.linear), len(s.logs))
	}
	s.Reset()
	if len(s.linear) != sketchLinearMax || len(s.logs) != sketchLogBuckets {
		t.Fatal("Reset released buckets; it must keep the range")
	}
}
