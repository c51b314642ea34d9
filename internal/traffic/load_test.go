package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestBernoulliRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Bernoulli(0.3).New()
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if p.Arrive(rng) {
			hits++
		}
	}
	got := float64(hits) / draws
	if got < 0.28 || got > 0.32 {
		t.Fatalf("Bernoulli(0.3) measured rate %v", got)
	}
}

func TestBurstyLongRunRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := mustBursty(t, 0.1, 20, 4).New()
	hits := 0
	const draws = 400000
	for i := 0; i < draws; i++ {
		if p.Arrive(rng) {
			hits++
		}
	}
	got := float64(hits) / draws
	if got < 0.085 || got > 0.115 {
		t.Fatalf("Bursty(0.1, 20, 4) long-run rate %v, want ~0.1", got)
	}
}

func TestBurstyBurstsAreClumped(t *testing.T) {
	// The same long-run rate must arrive in clumps: the lag-1
	// autocorrelation of arrivals is strongly positive for MMPP and ~0
	// for Bernoulli.
	count := func(p Process, rng *rand.Rand) (pairs, hits int) {
		prev := false
		for i := 0; i < 200000; i++ {
			cur := p.Arrive(rng)
			if cur {
				hits++
				if prev {
					pairs++
				}
			}
			prev = cur
		}
		return pairs, hits
	}
	bPairs, bHits := count(mustBursty(t, 0.1, 20, 5).New(), rand.New(rand.NewSource(3)))
	uPairs, uHits := count(Bernoulli(0.1).New(), rand.New(rand.NewSource(3)))
	bClump := float64(bPairs) / float64(bHits)
	uClump := float64(uPairs) / float64(uHits)
	if bClump < 2*uClump {
		t.Fatalf("bursty arrivals not clumped: P(arrival|prev arrival) bursty=%v bernoulli=%v", bClump, uClump)
	}
}

func TestAdversarialPatterns(t *testing.T) {
	g := topology.NewMesh([]int{4, 4}, 1)
	tor := Tornado(g)
	if got := tor(g.NodeAt([]int{0, 0}), nil); got != g.NodeAt([]int{1, 1}) {
		t.Fatalf("tornado(0,0) = %d, want node (1,1)", got)
	}
	comp := Complement(g)
	if got := comp(g.NodeAt([]int{1, 3}), nil); got != g.NodeAt([]int{2, 0}) {
		t.Fatalf("complement(1,3) = %d, want node (2,0)", got)
	}
	sh := Shuffle(16)
	if got := sh(topology.NodeID(0b0110), nil); got != topology.NodeID(0b1100) {
		t.Fatalf("shuffle(0110) = %04b, want 1100", got)
	}
	if got := sh(topology.NodeID(0b1001), nil); got != topology.NodeID(0b0011) {
		t.Fatalf("shuffle(1001) = %04b, want 0011", got)
	}
	// A random permutation is a bijection and deterministic per seed.
	perm := RandomPermutation(16, 42)
	seen := map[topology.NodeID]bool{}
	for i := 0; i < 16; i++ {
		seen[perm(topology.NodeID(i), nil)] = true
	}
	if len(seen) != 16 {
		t.Fatalf("RandomPermutation not a bijection: %d distinct images", len(seen))
	}
	again := RandomPermutation(16, 42)
	for i := 0; i < 16; i++ {
		if perm(topology.NodeID(i), nil) != again(topology.NodeID(i), nil) {
			t.Fatal("RandomPermutation not deterministic per seed")
		}
	}
}

func TestOpenLoopLowLoadDelivers(t *testing.T) {
	_, alg := mesh44()
	l := Load{
		Alg: alg, Pattern: Uniform(16), Arrivals: Bernoulli(0.02),
		Length: 4, Warmup: 100, Measure: 400, Drain: 2000, Seed: 11,
	}
	r, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatalf("DOR mesh deadlocked at 2%% load: %+v", r)
	}
	if r.Generated == 0 || r.Delivered != r.Generated || r.Backlog != 0 {
		t.Fatalf("low load should fully drain: %+v", r)
	}
	if r.LatencySamples == 0 || r.P50Latency < 4 || r.P99Latency < r.P50Latency {
		t.Fatalf("implausible latency stats: %+v", r)
	}
	if r.Throughput <= 0 {
		t.Fatalf("no accepted throughput: %+v", r)
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	_, alg := mesh44()
	l := Load{
		Alg: alg, Pattern: Uniform(16), Arrivals: mustBursty(t, 0.05, 10, 3),
		Length: 4, Warmup: 50, Measure: 200, Drain: 1000, Seed: 5,
	}
	a, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("open-loop run not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestOpenLoopSaturationBacklog(t *testing.T) {
	// At an offered load far beyond capacity the source queues must grow:
	// generated >> delivered, backlog large, and queueing-inclusive P99
	// far above the zero-load latency.
	_, alg := mesh44()
	l := Load{
		Alg: alg, Pattern: Uniform(16), Arrivals: Bernoulli(0.9),
		Length: 4, Warmup: 100, Measure: 400, Drain: 0, Seed: 13,
	}
	r, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatalf("DOR mesh must not deadlock: %+v", r)
	}
	if r.Backlog == 0 || float64(r.Delivered) > 0.8*float64(r.Generated) {
		t.Fatalf("90%% offered load should saturate a 4x4 mesh: %+v", r)
	}
}

func TestOpenLoopDetectsDeadlock(t *testing.T) {
	// Unrestricted shortest-path routing on a bidirectional ring has a
	// cyclic channel dependency; sustained load must wedge it, and the
	// engine must report deadlock rather than spin to the horizon.
	net := topology.NewRing(8, true)
	alg := routing.ShortestBFS(net)
	l := Load{
		Alg: alg, Pattern: Uniform(8), Arrivals: Bernoulli(0.5),
		Length: 8, Warmup: 200, Measure: 1000, Drain: 0, Seed: 3,
		Config: sim.Config{BufferDepth: 1},
	}
	r, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadlocked {
		t.Fatalf("expected deadlock on bidirectional ring under load: %+v", r)
	}
	if r.Cycles >= l.Warmup+l.Measure {
		t.Fatalf("deadlock should cut the run short: %+v", r)
	}
}

func mustBursty(t *testing.T, rate, burstLen, peak float64) Factory {
	t.Helper()
	f, err := Bursty(rate, burstLen, peak)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBurstyRejectsBadParameters: every parameter outside its domain,
// NaN and the infinities included, is an error naming it, never a panic
// or a process that runs with meaningless switch probabilities.
func TestBurstyRejectsBadParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name                 string
		rate, burstLen, peak float64
		want                 string
	}{
		{"negative rate", -0.1, 16, 4, "rate"},
		{"rate above 1", 1.5, 16, 4, "rate"},
		{"NaN rate", nan, 16, 4, "rate"},
		{"burst length below 1", 0.1, 0.5, 4, "burst length"},
		{"zero burst length", 0.1, 0, 4, "burst length"},
		{"NaN burst length", 0.1, nan, 4, "burst length"},
		{"infinite burst length", 0.1, inf, 4, "burst length"},
		{"peak 1", 0.1, 16, 1, "peak"},
		{"peak below 1", 0.1, 16, 0.5, "peak"},
		{"NaN peak", 0.1, 16, nan, "peak"},
		{"infinite peak", 0.1, 16, inf, "peak"},
		{"negative infinite peak", 0.1, 16, -inf, "peak"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Bursty(tc.rate, tc.burstLen, tc.peak)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Bursty(%v, %v, %v) error %v, want one naming the %s", tc.rate, tc.burstLen, tc.peak, err, tc.want)
			}
		})
	}
	for _, ok := range [][3]float64{{0, 1, 1.0001}, {1, 1, 2}, {0.05, 16, 4}} {
		if _, err := Bursty(ok[0], ok[1], ok[2]); err != nil {
			t.Fatalf("Bursty%v: %v", ok, err)
		}
	}
}

// TestLoadRejectsBadWindows: every window a run cannot honour is an
// error naming it, never a run with meaningless timestamps. Generation
// cycles are kept in 32 bits, so a window past 2³¹−1 cycles is one.
func TestLoadRejectsBadWindows(t *testing.T) {
	_, alg := mesh44()
	for _, tc := range []struct {
		name                   string
		warmup, measure, drain int
		want                   string
	}{
		{"zero measure", 0, 0, 0, "measure window"},
		{"negative warmup", -1, 10, 0, "negative warmup"},
		{"negative drain", 0, 10, -1, "negative warmup or drain"},
		{"beyond 32 bits", math.MaxInt32, 1, 0, "exceeds"},
	} {
		l := Load{
			Alg: alg, Pattern: Uniform(16), Arrivals: Bernoulli(0.1), Length: 4,
			Warmup: tc.warmup, Measure: tc.measure, Drain: tc.drain,
		}
		if _, err := l.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
