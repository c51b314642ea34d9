package obsv

import (
	"math/bits"
	"strconv"
)

// Sketch bucket layout. Values in [0, sketchLinearMax) get exact
// width-1 buckets, so every latency a sub-saturation (and most
// saturated) runs produce is recorded losslessly and nearest-rank
// quantiles over the sketch are byte-identical to quantiles over the
// raw sample list. Values at or above the linear range fall into
// log-linear buckets — sketchSubBuckets per power of two — with a
// worst-case relative error of 1/sketchSubBuckets, which keeps the
// sketch bounded no matter how pathological the tail gets.
const (
	sketchLinearMin  = 256     // first allocation of the exact buckets
	sketchLinearMax  = 1 << 16 // exact buckets for values 0..65535
	sketchSubBits    = 6
	sketchSubBuckets = 1 << sketchSubBits // log-linear buckets per octave
	sketchMaxExp     = 62                 // values above 2^62 clamp to the top bucket
	sketchLogBuckets = (sketchMaxExp - 16 + 1) * sketchSubBuckets
)

// Sketch is a bounded streaming histogram of non-negative integer
// samples: message latencies in cycles, and every Registry histogram.
// Unlike the grow-forever sample slices it
// replaces, its memory follows the largest sample, not the sample count:
// the exact buckets double from 256 entries until they cover the largest
// value below 2¹⁶ seen, and the log-linear tail is allocated on the first
// value at or above 2¹⁶, so a sketch is capped at about 268 KiB however
// many billions of samples it absorbs, and one whose latencies stay under
// 256 cycles holds 1 KiB. It is byte-deterministic: the bucket layout is
// pure integer arithmetic, AppendJSON emits fixed-key-order output, and
// two sketches fed the same samples render identically however their
// buckets grew.
//
// The zero value is NOT ready to use; call NewSketch.
type Sketch struct {
	linear []uint32 // exact counts for values < len(linear) <= sketchLinearMax
	logs   []uint32 // log-linear counts for the tail; nil until one arrives
	count  int64
	sum    int64
	max    int
	min    int
}

// NewSketch returns an empty sketch. It allocates no buckets.
func NewSketch() *Sketch { return &Sketch{min: -1} }

// growLinear widens the exact buckets, doubling from sketchLinearMin, until
// they cover value v < sketchLinearMax.
func (s *Sketch) growLinear(v int) {
	n := max(len(s.linear), sketchLinearMin)
	for n <= v {
		n *= 2
	}
	grown := make([]uint32, n)
	copy(grown, s.linear)
	s.linear = grown
}

// logIndex maps a value >= sketchLinearMax to its log-linear bucket.
func logIndex(v int) int {
	u := uint64(v)
	exp := 63 - bits.LeadingZeros64(u) // floor(log2 v), >= 16
	if exp > sketchMaxExp {
		return sketchLogBuckets - 1
	}
	// The sub-bucket is the top sketchSubBits bits below the leading one.
	sub := int((u >> (uint(exp) - sketchSubBits)) & (sketchSubBuckets - 1))
	return (exp-16)*sketchSubBuckets + sub
}

// logUpper returns the inclusive upper bound of log bucket i: the largest
// value mapping to it, which Quantile reports as the bucket's
// representative (a conservative latency estimate).
func logUpper(i int) int {
	exp := i/sketchSubBuckets + 16
	sub := i % sketchSubBuckets
	base := uint64(1) << uint(exp)
	width := base >> sketchSubBits
	return int(base + uint64(sub+1)*width - 1)
}

// Add records one sample. Negative samples are clamped to 0.
func (s *Sketch) Add(v int) { s.AddN(v, 1) }

// AddN records n occurrences of sample v.
func (s *Sketch) AddN(v int, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if v < sketchLinearMax {
		if v >= len(s.linear) {
			s.growLinear(v)
		}
		s.linear[v] += uint32(n)
	} else {
		if s.logs == nil {
			s.logs = make([]uint32, sketchLogBuckets)
		}
		s.logs[logIndex(v)] += uint32(n)
	}
	s.count += n
	s.sum += int64(v) * n
	if v > s.max {
		s.max = v
	}
	if s.min < 0 || v < s.min {
		s.min = v
	}
}

// Reset empties the sketch without releasing its buckets: it keeps the
// range it has grown to.
func (s *Sketch) Reset() {
	clear(s.linear)
	clear(s.logs)
	s.count, s.sum, s.max, s.min = 0, 0, 0, -1
}

// Count returns the number of recorded samples.
func (s *Sketch) Count() int64 { return s.count }

// Sum returns the exact sum of recorded samples.
func (s *Sketch) Sum() int64 { return s.sum }

// Max returns the exact largest recorded sample (0 when empty).
func (s *Sketch) Max() int { return s.max }

// Min returns the exact smallest recorded sample (0 when empty).
func (s *Sketch) Min() int {
	if s.min < 0 {
		return 0
	}
	return s.min
}

// Mean returns the exact arithmetic mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Quantile returns the nearest-rank p-th percentile: the smallest bucket
// value such that at least p% of samples are <= it — the same rule the
// raw-slice percentile helpers use, so results agree exactly whenever the
// samples fall in the sketch's lossless linear range. Tail values report
// their bucket's upper bound; the very last sample reports the exact max.
func (s *Sketch) Quantile(p int) int {
	if s.count == 0 {
		return 0
	}
	rank := (int64(p)*s.count + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var seen int64
	for v, c := range s.linear {
		if c == 0 {
			continue
		}
		seen += int64(c)
		if seen >= rank {
			return v
		}
	}
	for i, c := range s.logs {
		if c == 0 {
			continue
		}
		seen += int64(c)
		if seen >= rank {
			if seen == s.count {
				// The rank lands in the final occupied bucket; the exact
				// max is known and is a tighter answer than the bucket
				// bound.
				return s.max
			}
			return logUpper(i)
		}
	}
	return s.max
}

// AppendJSON appends the sketch as one deterministic JSON object:
// summary scalars followed by the occupied buckets as [value, count]
// pairs (linear buckets report their exact value, log buckets their
// upper bound). Hand-rolled fixed key order — no maps, no reflection.
func (s *Sketch) AppendJSON(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, s.count, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, s.sum, 10)
	b = append(b, `,"min":`...)
	b = strconv.AppendInt(b, int64(s.Min()), 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, int64(s.max), 10)
	b = append(b, `,"p50":`...)
	b = strconv.AppendInt(b, int64(s.Quantile(50)), 10)
	b = append(b, `,"p95":`...)
	b = strconv.AppendInt(b, int64(s.Quantile(95)), 10)
	b = append(b, `,"p99":`...)
	b = strconv.AppendInt(b, int64(s.Quantile(99)), 10)
	b = append(b, `,"buckets":[`...)
	first := true
	emit := func(v int, c uint32) {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ']')
	}
	for v, c := range s.linear {
		if c != 0 {
			emit(v, c)
		}
	}
	for i, c := range s.logs {
		if c != 0 {
			emit(logUpper(i), c)
		}
	}
	b = append(b, `]}`...)
	return b
}
