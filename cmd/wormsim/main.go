// Command wormsim runs a flit-level wormhole simulation of a synthetic
// workload on a standard topology and prints delivery statistics.
//
// Examples:
//
//	wormsim -topo mesh -dims 8x8 -alg dor -pattern transpose -rate 0.1 \
//	        -length 8 -duration 500
//	wormsim -topo uring -dims 6 -alg bfs -rate 0.3 -duration 100 -seed 3
//	wormsim -paper figure1 -trace figure1.jsonl
//	wormsim -paper figure1 -trace figure1_waitfor.dot
//	wormsim -paper figure1 -trace figure1_perfetto.json
//
// With -paper the synthetic workload is replaced by one of the paper's
// fixed scenarios (figure1, figure2, figure3a..f, gen<k>), which makes
// the tracing flags a microscope for the paper's arguments: tracing
// figure1 shows every channel acquisition and wait-for edge of the false
// resource cycle without the full wait-for cycle ever closing.
//
// Exit status: 0 when every message is delivered, 2 on deadlock or a
// usage error (an unknown flag, -bufdepth below 1, -telemetry below 0),
// 3 on a cycle-budget timeout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/obsv/manifest"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	var (
		topo     = flag.String("topo", "mesh", "topology: mesh, torus, ring, uring, hypercube, star, complete")
		dims     = flag.String("dims", "4x4", "dimensions, e.g. 8x8 (grids) or 8 (others)")
		vcs      = flag.Int("vcs", 1, "virtual channels per link (grids)")
		alg      = flag.String("alg", "dor", "routing: dor, negfirst, dallyseitz, ecube, bfs, valiant, valiantsplit, hub, fulladaptive, westfirst, duato")
		pattern  = flag.String("pattern", "uniform", "traffic: "+cli.PatternNames)
		rate     = flag.Float64("rate", 0.05, "per-node per-cycle injection probability")
		length   = flag.Int("length", 8, "message length in flits")
		duration = flag.Int("duration", 200, "injection window in cycles")
		seed     = flag.Int64("seed", 1, "workload seed")
		depth    = flag.Int("bufdepth", 1, "flit buffer depth per channel")
		maxCyc   = flag.Int("maxcycles", 1_000_000, "simulation cycle budget")
		paper    = flag.String("paper", "", "run a paper scenario instead of a synthetic workload: figure1, figure2, figure3a..f, gen<k>")
	)
	obsvF := cli.RegisterObsvFlags().WithTrace().WithTelemetry()
	flag.Parse()
	cli.ExitUsage(cli.CheckBufDepth(*depth))
	cli.ExitUsage(cli.CheckVCs(*vcs))
	cli.ExitUsage(obsvF.Check())

	var (
		net  *topology.Network
		grid *topology.Grid
		name string
		msgs []sim.MessageSpec
		cfg  sim.Config
		err  error
	)
	if *paper != "" {
		pn, perr := cli.PaperNet(*paper)
		if perr != nil {
			log.Fatal(perr)
		}
		sc := pn.Scenario
		net, name, msgs, cfg = sc.Net, sc.Name, sc.Msgs, sc.Cfg
		if *depth > 1 {
			cfg.BufferDepth = *depth
		}
	} else if cli.AdaptiveNames[*alg] {
		a, g, berr := cli.BuildAdaptive(*topo, *alg, *dims, *vcs)
		if berr != nil {
			log.Fatal(berr)
		}
		net, grid, name = a.Net, g, a.Name+" (adaptive)"
		pat, perr := cli.BuildPattern(*pattern, net, grid, *seed)
		if perr != nil {
			log.Fatal(perr)
		}
		w := traffic.AdaptiveWorkload{Alg: a, Pattern: pat, Rate: *rate, Length: *length, Duration: *duration, Seed: *seed}
		msgs, err = w.Messages()
	} else {
		a, g, berr := cli.Build(*topo, *alg, *dims, *vcs)
		if berr != nil {
			log.Fatal(berr)
		}
		net, grid, name = a.Network(), g, a.Name()
		pat, perr := cli.BuildPattern(*pattern, net, grid, *seed)
		if perr != nil {
			log.Fatal(perr)
		}
		w := traffic.Workload{Alg: a, Pattern: pat, Rate: *rate, Length: *length, Duration: *duration, Seed: *seed}
		msgs, err = w.Messages()
	}
	if err != nil {
		log.Fatal(err)
	}
	if *paper == "" {
		cfg = sim.Config{BufferDepth: *depth}
	}

	obs, err := obsvF.Open(name, cli.ChannelLanes(net))
	if err != nil {
		log.Fatal(err)
	}

	s := sim.New(net, cfg)
	col := obs.NewTelemetry(net)
	if col != nil {
		s.SetTelemetry(col)
	}
	s.SetTracer(obs.Tracer)
	for _, m := range msgs {
		if _, err := s.Add(m); err != nil {
			log.Fatal(err)
		}
	}

	out := s.Run(*maxCyc)
	stats := sim.Collect(s)
	run := manifest.Run{
		Name: name, TopologyHash: manifest.TopologyHash(net),
		Verdict: out.Result.String(),
	}
	if *paper != "" {
		run.Scenario = name
	}
	run.Telemetry = cli.TelemetrySummary(col, nil)
	obs.RecordRun(run)
	if err := obs.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network:    %s (%d nodes, %d channels)\n", net.Name(), net.NumNodes(), net.NumChannels())
	fmt.Printf("routing:    %s\n", name)
	fmt.Printf("outcome:    %s after %d cycles\n", out.Result, stats.Cycles)
	fmt.Printf("messages:   %d delivered of %d\n", stats.Delivered, stats.Messages)
	fmt.Printf("latency:    avg %.2f p50 %d p95 %d p99 %d max %d cycles\n",
		stats.AvgLatency, stats.P50Latency, stats.P95Latency, stats.P99Latency, stats.MaxLatency)
	fmt.Printf("throughput: %.3f flits/cycle\n", stats.Throughput)
	if ts := run.Telemetry; ts != nil && ts.Samples > 0 {
		fmt.Printf("telemetry:  %d frames / %d samples (stride %d), mean util %.3f, hottest c%d (util %.3f, %d blocked samples)\n",
			ts.Frames, ts.Samples, ts.Stride, ts.MeanUtil, ts.HottestChannel, ts.HottestUtil, ts.HottestBlocked)
	}
	switch out.Result {
	case sim.ResultDeadlock:
		fmt.Printf("undelivered messages: %v\n", out.Undelivered)
		os.Exit(2)
	case sim.ResultTimeout:
		fmt.Printf("undelivered messages: %v\n", out.Undelivered)
		os.Exit(3)
	}
}
