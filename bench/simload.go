package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obsv/telemetry"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sim-load: open-loop traffic.Load cells on an 8×8 mesh under dimension-
// order routing, each with its own telemetry collector and SLO bank. It
// runs the sim layer as long Step runs on a 224-channel network plus the
// telemetry plane, with no mcheck at all: search changes predict no change
// here. The host side is a closed loop (one cell at a time); the open loop
// is in simulated time.
var simLoad = &Workload{
	Name:      "sim-load",
	Work:      "delivered flits",
	TracedOps: 4 * len(loadRates), // four whole sweeps
	Setup:     newLoadInstance,
}

// Cell parameters: uniform Bernoulli arrivals at each rate (messages per
// node per cycle) spanning saturation, 8-flit messages, 1-flit buffers.
var loadRates = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08}

const (
	loadSweeps  = 40
	loadLength  = 8
	loadWarmup  = 500
	loadMeasure = 2000
	loadDrain   = 20000
	loadSLO     = "p99<=500"
	// A cell is saturated when it accepts under this share of the flits
	// offered in its measure window (the loadtest command's rule).
	saturatedBelow = 0.90
)

type loadCell struct {
	rate float64
	seed int64
}

type loadInstance struct {
	alg      routing.Algorithm
	pattern  traffic.Pattern
	nodes    int
	channels int
	slo      []telemetry.SLOObjective
	cells    []loadCell // sweep-major: cell i has rate loadRates[i % len(loadRates)]
}

func newLoadInstance(seed int64, _ string) (Instance, error) {
	g := topology.NewMesh([]int{8, 8}, 1)
	slo, err := telemetry.ParseSLO(loadSLO)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cells := make([]loadCell, 0, loadSweeps*len(loadRates))
	for sweep := 0; sweep < loadSweeps; sweep++ {
		for _, r := range loadRates {
			cells = append(cells, loadCell{rate: r, seed: rng.Int63()})
		}
	}
	n := g.Network.NumNodes()
	return &loadInstance{
		alg: routing.DimensionOrder(g), pattern: traffic.Uniform(n),
		nodes: n, channels: g.Network.NumChannels(), slo: slo, cells: cells,
	}, nil
}

// loadOut is one cell's output, without its latency sketches: a traced
// run holds every output until its checks, and the sketches (17 MiB a
// cell with the SLO bank's) would change how often the collector runs.
type loadOut struct {
	cell loadCell
	res  traffic.LoadResult
	// The SLO bank's aggregate sample count and p99.
	aggCount int64
	aggP99   int
	frames   int
	window   telemetry.WindowStats
	slo      *telemetry.SLOReport
}

func (l *loadInstance) Distinct() int  { return len(l.cells) }
func (l *loadInstance) DigestOps() int { return len(loadRates) }

func (l *loadInstance) Run(i int, sp *Spans, parent int) (any, error) {
	c := l.cells[i%len(l.cells)]
	col := telemetry.NewCollector(l.channels, telemetry.Config{Stride: 64, Adaptive: true, WindowBytes: 256 << 10})
	bank := telemetry.NewBank(l.nodes)
	ld := traffic.Load{
		Alg: l.alg, Pattern: l.pattern, Arrivals: traffic.Bernoulli(c.rate),
		Length: loadLength, Warmup: loadWarmup, Measure: loadMeasure, Drain: loadDrain,
		Seed: c.seed, Config: sim.Config{BufferDepth: 1}, Telemetry: col, Bank: bank,
	}
	id := sp.Begin("traffic.Load.Run", parent)
	res, err := ld.Run()
	sp.End(id)
	if err != nil {
		return nil, err
	}
	id = sp.Begin("telemetry.Bank.Evaluate", parent)
	rep := bank.Evaluate(l.slo)
	sp.End(id)
	agg := bank.Aggregate()
	res.Latency = nil
	return &loadOut{cell: c, res: res, aggCount: agg.Count(), aggP99: agg.Quantile(99),
		frames: col.FramesClosed(), window: col.Window().Stats(), slo: rep}, nil
}

func (l *loadInstance) Check(i int, o any, _ *Spans, _ int) (float64, string, error) {
	out := o.(*loadOut)
	r := &out.res
	work := float64(r.Delivered * loadLength)
	switch {
	case r.Deadlocked:
		return work, "", fmt.Errorf("rate %g: dimension-order routing deadlocked at cycle %d", out.cell.rate, r.DeadlockCycle)
	case r.Delivered != r.Generated || r.Backlog != 0:
		return work, "", fmt.Errorf("rate %g: delivered %d of %d messages, backlog %d", out.cell.rate, r.Delivered, r.Generated, r.Backlog)
	case int(out.aggCount) != r.LatencySamples || (r.LatencySamples > 0 && out.aggP99 != r.P99Latency):
		return work, "", fmt.Errorf("rate %g: SLO bank saw %d samples (p99 %d), load measured %d (p99 %d)",
			out.cell.rate, out.aggCount, out.aggP99, r.LatencySamples, r.P99Latency)
	case out.frames == 0:
		return work, "", fmt.Errorf("rate %g: telemetry closed no frames", out.cell.rate)
	}
	return work, digest("%g %d %d/%d/%d %d %d/%d %d %d/%d/%d/%d %d %d/%d %d",
		out.cell.rate, out.cell.seed, r.Generated, r.Injected, r.Delivered, r.Cycles,
		r.AcceptedFlits, r.OfferedFlits, r.LatencySamples, r.P50Latency, r.P95Latency, r.P99Latency, r.MaxLatency,
		out.frames, out.window.Bytes, out.window.Frames, out.slo.Violations), nil
}

func (l *loadInstance) Layers(m Metrics, outs []any, spans []Span) error {
	var busy time.Duration
	for _, sp := range spans {
		if sp.Name == "traffic.Load.Run" {
			busy += sp.End - sp.Start
		}
	}
	var cycles, flits, accepted, offered, windowBytes int64
	frames, violations := 0, 0
	var p50, p99 []float64 // per-cell latency percentiles at rate 0.02
	var saturation []float64
	sweepSat := 0.0
	for i, o := range outs {
		out, ok := o.(*loadOut)
		if !ok {
			return fmt.Errorf("cell %d did not complete", i)
		}
		r := &out.res
		cycles += int64(r.Cycles)
		flits += int64(r.Delivered * loadLength)
		accepted += r.AcceptedFlits
		offered += r.OfferedFlits
		frames += out.frames
		windowBytes += int64(out.window.Bytes)
		violations += out.slo.Violations
		if out.cell.rate == 0.02 {
			p50 = append(p50, float64(r.P50Latency))
			p99 = append(p99, float64(r.P99Latency))
		}
		k := i % len(loadRates)
		if k == 0 {
			sweepSat = 0
		}
		if sweepSat == 0 && (r.Deadlocked || float64(r.AcceptedFlits) < saturatedBelow*float64(r.OfferedFlits)) {
			sweepSat = out.cell.rate
		}
		if k == len(loadRates)-1 {
			saturation = append(saturation, sweepSat)
		}
	}
	n := len(outs)
	if cycles > 0 && flits > 0 {
		m.set("traffic.ns_per_cycle", float64(busy)/float64(cycles), "ns", n)
		m.set("traffic.ns_per_flit", float64(busy)/float64(flits), "ns", n)
	}
	m.set("traffic.cells", float64(n), "count", n)
	m.set("traffic.sim_cycles", float64(cycles), "count", n)
	m.set("traffic.delivered_flits", float64(flits), "count", n)
	if len(saturation) > 0 {
		m.set("traffic.saturation_rate", Median(saturation), "msgs/node/cycle", len(saturation))
	}
	m.set("traffic.latency_p50_cycles", Median(p50), "cycles", len(p50))
	m.set("traffic.latency_p99_cycles", Median(p99), "cycles", len(p99))
	if offered > 0 {
		m.set("traffic.accepted_fraction", float64(accepted)/float64(offered), "fraction", n)
	}
	m.set("telemetry.frames", float64(frames), "count", n)
	if n > 0 {
		m.set("telemetry.window_kib", float64(windowBytes)/1024/float64(n), "KiB", n)
	}
	m.set("telemetry.slo_violations", float64(violations), "count", n)
	return nil
}
