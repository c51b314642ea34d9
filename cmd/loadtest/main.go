// Command loadtest sweeps offered load over a rate grid for a (topology,
// routing) pair and emits a deterministic JSON latency-throughput
// saturation curve: accepted throughput and queueing-inclusive p50/p95/p99
// latency per offered rate, with the saturation point detected. This is
// the standard open-loop evaluation of the interconnection-network
// literature, driven by the flit-level wormhole simulator.
//
// Examples:
//
//	loadtest -topo mesh -dims 8x8 -alg dor -pattern uniform \
//	         -rates 0.02:0.30:0.02 -length 8
//	loadtest -topo mesh -dims 4x4 -alg dor -pattern transpose \
//	         -arrivals bursty -burstlen 16 -peak 4 -o curve.json
//	loadtest -topo ring -dims 8 -alg bfs -rates 0.05,0.2,0.5 -workers 4
//
// The JSON artifact is byte-for-byte reproducible for a fixed flag set,
// regardless of -workers: points are computed in parallel but emitted in
// rate order, and every point's RNG is seeded from (seed, point index).
//
// Exit status: 0 on success, 1 on configuration errors, 2 on a flag
// value out of range (-bufdepth below 1, -telemetry below 0) or an
// unknown flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"

	"repro/internal/cli"
	"repro/internal/obsv/manifest"
	"repro/internal/obsv/telemetry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// point is one row of the emitted curve. Field order is the JSON order;
// keep integers where determinism is delicate (cycle counts, flits) and
// floats only for derived ratios.
type point struct {
	Rate         float64 `json:"rate"`
	OfferedFlits float64 `json:"offered_flits_per_node_cycle"`
	MeasOffered  int64   `json:"offered_flits_measured"`
	MeasAccepted int64   `json:"accepted_flits_measured"`
	Throughput   float64 `json:"accepted_flits_per_node_cycle"`
	// AcceptedFraction is accepted/offered over the measure window (1
	// when nothing was offered); Divergence is its complement — the
	// per-point saturation signal, 0 below saturation and growing as
	// source queues build.
	AcceptedFraction float64 `json:"accepted_fraction"`
	Divergence       float64 `json:"offered_accepted_divergence"`
	Generated        int     `json:"generated"`
	Injected         int     `json:"injected"`
	Delivered        int     `json:"delivered"`
	Backlog          int     `json:"backlog"`
	Cycles           int     `json:"cycles"`
	Samples          int     `json:"latency_samples"`
	AvgLatency       float64 `json:"avg_latency"`
	P50              int     `json:"p50_latency"`
	P95              int     `json:"p95_latency"`
	P99              int     `json:"p99_latency"`
	Max              int     `json:"max_latency"`
	Saturated        bool    `json:"saturated"`
	Deadlocked       bool    `json:"deadlocked,omitempty"`
	DeadlockCycle    int     `json:"deadlock_cycle,omitempty"`
	// SourceAccepted is the per-source accepted-flit series (measure
	// window, delivered messages), emitted with -persource.
	SourceAccepted []int64 `json:"source_accepted,omitempty"`
	// Telemetry summarizes the point's channel telemetry when -telemetry
	// is on.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
	// SLO is the per-source latency-SLO evaluation for this rate cell,
	// present with -slo.
	SLO *telemetry.SLOReport `json:"slo,omitempty"`
}

// curve is the whole JSON artifact.
type curve struct {
	Network        string  `json:"network"`
	Routing        string  `json:"routing"`
	Pattern        string  `json:"pattern"`
	Arrivals       string  `json:"arrivals"`
	Length         int     `json:"length_flits"`
	BufferDepth    int     `json:"buffer_depth"`
	Warmup         int     `json:"warmup_cycles"`
	Measure        int     `json:"measure_cycles"`
	Drain          int     `json:"drain_cycles"`
	Seed           int64   `json:"seed"`
	SLOSpec        string  `json:"slo_spec,omitempty"`
	SaturationRate float64 `json:"saturation_rate,omitempty"`
	Points         []point `json:"points"`
}

func main() {
	var (
		topo      = flag.String("topo", "mesh", "topology: mesh, torus, ring, uring, hypercube, star, complete")
		dims      = flag.String("dims", "8x8", "dimensions, e.g. 8x8 (grids) or 8 (others)")
		vcs       = flag.Int("vcs", 1, "virtual channels per link (grids)")
		alg       = flag.String("alg", "dor", "routing: dor, negfirst, dallyseitz, ecube, bfs, valiant, valiantsplit, hub")
		pattern   = flag.String("pattern", "uniform", "traffic: "+cli.PatternNames)
		rates     = flag.String("rates", "0.02:0.20:0.02", "offered-rate grid: lo:hi:step, or a comma list like 0.05,0.1,0.2; every rate in (0, 1]")
		arrivals  = flag.String("arrivals", "bernoulli", "arrival process: bernoulli, bursty")
		burstlen  = flag.Float64("burstlen", 16, "bursty: mean burst length in cycles")
		peak      = flag.Float64("peak", 4, "bursty: ON-phase rate multiplier (> 1)")
		length    = flag.Int("length", 8, "message length in flits")
		depth     = flag.Int("bufdepth", 1, "flit buffer depth per channel")
		warmup    = flag.Int("warmup", 500, "warmup cycles before the measurement window")
		measure   = flag.Int("measure", 2000, "measurement window in cycles")
		drain     = flag.Int("drain", 20000, "max cycles to drain in-flight traffic after the window")
		seed      = flag.Int64("seed", 1, "base seed; point i runs with a seed derived from (seed, i)")
		workers   = flag.Int("workers", 1, "rate points computed in parallel (output is identical for any value)")
		perSource = flag.Bool("persource", false, "include the per-source accepted-flit series in each point")
		sloSpec   = flag.String("slo", "", "latency SLOs evaluated per rate cell against per-source sketches, e.g. \"p99<=500\" or \"p50<=120,p99<=800\"")
		outPath   = flag.String("o", "", "write the JSON curve here (default stdout)")
	)
	obsvF := cli.RegisterObsvFlags().WithTelemetry()
	flag.Parse()
	cli.ExitUsage(cli.CheckBufDepth(*depth))
	cli.ExitUsage(cli.CheckVCs(*vcs))
	cli.ExitUsage(obsvF.Check())

	a, grid, err := cli.Build(*topo, *alg, *dims, *vcs)
	if err != nil {
		log.Fatal(err)
	}
	net := a.Network()
	pat, err := cli.BuildPattern(*pattern, net, grid, *seed)
	if err != nil {
		log.Fatal(err)
	}
	grid_, err := cli.ParseRates(*rates)
	if err != nil {
		log.Fatal(err)
	}

	// Resolve every rate's arrival process before the sweep, so a bad
	// process name or parameter fails at once.
	factories := make([]traffic.Factory, len(grid_))
	for i, rate := range grid_ {
		switch *arrivals {
		case "bernoulli":
			factories[i] = traffic.Bernoulli(rate)
		case "bursty":
			factories[i], err = traffic.Bursty(rate, *burstlen, *peak)
		default:
			err = fmt.Errorf("loadtest: unknown arrival process %q (want bernoulli, bursty)", *arrivals)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	var sloObjs []telemetry.SLOObjective
	if *sloSpec != "" {
		if sloObjs, err = telemetry.ParseSLO(*sloSpec); err != nil {
			log.Fatal(err)
		}
	}

	name := fmt.Sprintf("loadtest %s %s %s", net.Name(), a.Name(), *pattern)
	obs, err := obsvF.Open(name, nil)
	if err != nil {
		log.Fatal(err)
	}

	points := make([]point, len(grid_))
	cols := make([]*telemetry.Collector, len(grid_))
	errs := make([]error, len(grid_))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, *workers))
	for i, rate := range grid_ {
		wg.Add(1)
		go func(i int, rate float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each point gets its own collector: points run in parallel,
			// and telemetry frames must depend only on the point's own
			// deterministic simulation.
			col := obs.NewTelemetry(net)
			cols[i] = col
			l := traffic.Load{
				Alg: a, Pattern: pat, Arrivals: factories[i],
				Length: *length, Warmup: *warmup, Measure: *measure, Drain: *drain,
				// Decorrelate points without coupling them to worker
				// scheduling: the seed depends only on the grid index.
				Seed:      *seed + int64(i)*1_000_003,
				Config:    sim.Config{BufferDepth: *depth},
				Telemetry: col,
			}
			if sloObjs != nil {
				l.Bank = telemetry.NewBank(net.NumNodes())
			}
			r, err := l.Run()
			if err != nil {
				errs[i] = err
				return
			}
			offered := rate * float64(*length)
			p := point{
				Rate: rate, OfferedFlits: offered,
				MeasOffered: r.OfferedFlits, MeasAccepted: r.AcceptedFlits,
				Throughput:       r.Throughput,
				AcceptedFraction: 1, // offered == 0 accepts everything there was
				Generated:        r.Generated, Injected: r.Injected, Delivered: r.Delivered,
				Backlog: r.Backlog, Cycles: r.Cycles,
				Samples: r.LatencySamples, AvgLatency: r.AvgLatency,
				P50: r.P50Latency, P95: r.P95Latency, P99: r.P99Latency, Max: r.MaxLatency,
				Deadlocked: r.Deadlocked, DeadlockCycle: r.DeadlockCycle,
			}
			if r.OfferedFlits > 0 {
				p.AcceptedFraction = float64(r.AcceptedFlits) / float64(r.OfferedFlits)
				p.Divergence = 1 - p.AcceptedFraction
			}
			if *perSource {
				p.SourceAccepted = r.SourceAccepted
			}
			p.Telemetry = cli.TelemetrySummary(col, r.Latency)
			if sloObjs != nil {
				p.SLO = l.Bank.Evaluate(sloObjs)
			}
			// Saturated: the network deadlocked, or it accepted measurably
			// less than was actually offered during the window (the source
			// queues grow without bound past saturation).
			p.Saturated = r.Deadlocked ||
				(r.OfferedFlits > 0 && float64(r.AcceptedFlits) < 0.90*float64(r.OfferedFlits))
			points[i] = p
			// Counters sum the same whichever order parallel points
			// finish in, so the snapshot does not depend on -workers.
			if obs.Metrics != nil {
				obs.Metrics.Counter("loadtest_points_done_total").Inc()
				if p.SLO != nil {
					obs.Metrics.Counter("loadtest_slo_violations_total").Add(int64(p.SLO.Violations))
				}
			}
		}(i, rate)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	// Parallel points closed their frames in any order, so the gauges
	// end on the last grid point's final frame, whatever -workers is.
	if col := cols[len(cols)-1]; col != nil {
		if f, ok := col.LastFrame(); ok {
			obs.PublishFrame(&f)
		}
	}

	c := curve{
		Network: net.Name(), Routing: a.Name(), Pattern: *pattern, Arrivals: *arrivals,
		Length: *length, BufferDepth: *depth,
		Warmup: *warmup, Measure: *measure, Drain: *drain, Seed: *seed,
		SLOSpec: *sloSpec,
		Points:  points,
	}
	for _, p := range points {
		if p.Saturated {
			c.SaturationRate = p.Rate
			break
		}
	}

	buf, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		os.Stdout.Write(buf)
	}

	verdict := "no-saturation"
	if c.SaturationRate > 0 {
		verdict = fmt.Sprintf("saturates at %.3g", c.SaturationRate)
	}
	sloViolations := 0
	for _, p := range points {
		if p.SLO != nil {
			sloViolations += p.SLO.Violations
		}
	}
	if sloObjs != nil && sloViolations > 0 {
		verdict += fmt.Sprintf(", %d SLO violation(s)", sloViolations)
	}
	run := manifest.Run{
		Name: name, TopologyHash: manifest.TopologyHash(net), Verdict: verdict,
	}
	// The manifest carries the telemetry of the most interesting point:
	// the saturation point when one exists, else the highest rate swept.
	for _, p := range points {
		if p.Telemetry == nil && p.SLO == nil {
			continue
		}
		run.Telemetry = p.Telemetry
		run.SLO = p.SLO
		if p.Saturated {
			break
		}
	}
	obs.RecordRun(run)
	if err := obs.Close(); err != nil {
		log.Fatal(err)
	}
}
