// Package benchrows is the one registry of the repository's timed rows:
// the experiments of DESIGN.md's index (E1-E11), the ablations and the
// microbenchmarks. Each row is defined once, here. TestRowBudgets pins
// each row's state count and allocations, and BenchmarkRows in
// bench_test.go times the rows under `go test -bench`; the timed,
// compared workloads live in bench/.
//
// A search row lists the exhaustive searches one op runs, each with the
// verdict and the exact state count it must reproduce. Any other row's op
// checks its own output. Absolute times are machine-dependent, but a
// wrong outcome fails the row, so a bench run doubles as a reproduction
// run.
package benchrows

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/obsv/telemetry"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/unreachable"
)

// Search is one exhaustive search of a row, with the outcome it must
// reproduce.
type Search struct {
	Scenario sim.Scenario
	Options  mcheck.SearchOptions
	// Liveness selects mcheck.SearchLiveness over mcheck.Search.
	Liveness bool
	Verdict  mcheck.Verdict
	States   int
}

// Run runs the search under opts, which is Options plus whatever sinks
// the caller attaches, and checks the verdict and the state count.
func (s Search) Run(opts mcheck.SearchOptions) (mcheck.SearchResult, error) {
	search := mcheck.Search
	if s.Liveness {
		search = mcheck.SearchLiveness
	}
	res := search(s.Scenario, opts)
	if res.Verdict != s.Verdict || res.States != s.States {
		return res, fmt.Errorf("%s: %v in %d states; want %v in %d",
			s.Scenario.Name, res.Verdict, res.States, s.Verdict, s.States)
	}
	return res, nil
}

// Row is one timed row.
type Row struct {
	Name string
	// Searches are the searches Op runs, in order; empty for rows that
	// time other work.
	Searches []Search
	// Op runs one unit of the row's work and returns an error when its
	// output is wrong. Its inputs were built by Rows, outside any timing.
	Op func() error
}

// Bench times the row's op.
func (r Row) Bench(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Op(); err != nil {
			b.Fatal(err)
		}
	}
}

func searchRow(name string, ss ...Search) Row {
	return Row{Name: name, Searches: ss, Op: func() error {
		for _, s := range ss {
			if _, err := s.Run(s.Options); err != nil {
				return err
			}
		}
		return nil
	}}
}

// one is a search row of a single search.
func one(name string, sc sim.Scenario, opts mcheck.SearchOptions, v mcheck.Verdict, states int) Row {
	return searchRow(name, Search{Scenario: sc, Options: opts, Verdict: v, States: states})
}

func stall(k int) mcheck.SearchOptions {
	return mcheck.SearchOptions{StallBudget: k, FreezeInTransitOnly: true}
}

func reduced(o mcheck.SearchOptions) mcheck.SearchOptions {
	o.Reduction = mcheck.RedAll
	return o
}

// figure3 is the six Figure 3 searches under opts. At stall budget 0,
// (a)-(d) do not deadlock: they need adversarial skew or interposed
// copies. (e) and (f) deadlock outright.
func figure3(opts mcheck.SearchOptions, states [6]int) []Search {
	ss := make([]Search, 6)
	for i := range ss {
		v := mcheck.VerdictNoDeadlock
		if i >= 4 {
			v = mcheck.VerdictDeadlock
		}
		ss[i] = Search{Scenario: papernets.Figure3(byte('a' + i)).Scenario, Options: opts, Verdict: v, States: states[i]}
	}
	return ss
}

// genK decides Gen(k)'s minimal stall tolerance: a search at budgets k-1
// and k.
func genK(k, below, at int) []Search {
	sc := papernets.GenK(k).Scenario
	return []Search{
		{Scenario: sc, Options: stall(k - 1), Verdict: mcheck.VerdictNoDeadlock, States: below},
		{Scenario: sc, Options: stall(k), Verdict: mcheck.VerdictDeadlock, States: at},
	}
}

// Rows returns the registry. Each call builds fresh inputs, so callers
// never share mutable state.
func Rows() []Row {
	const (
		free     = mcheck.VerdictNoDeadlock
		deadlock = mcheck.VerdictDeadlock
	)
	none := mcheck.SearchOptions{}
	fig1 := papernets.Figure1().Scenario
	gen2, gen4 := papernets.GenK(2).Scenario, papernets.GenK(4).Scenario
	return []Row{
		// E1: Theorem 1, the exhaustive search over every injection
		// timing and arbitration outcome of Figure 1.
		one("E1_Figure1_Search", fig1, none, free, 2996),
		{Name: "E2_PropertyChecks", Op: propertyChecks()},
		// The Section 6 skew variant of E1, which deadlocks at budget 1.
		one("E3_Figure1_Skew1", fig1, stall(1), deadlock, 4768),
		// E4: Theorem 4, the two-sharer deadlock of Figure 2.
		one("E4_Figure2_Search", papernets.Figure2().Scenario, none, deadlock, 57),
		searchRow("E5_Figure3_SearchAll", figure3(none, [6]int{707, 575, 676, 872, 653, 5260})...),
		one("E6_Gen2_Stall2", gen2, stall(2), deadlock, 8385),
		// E7: a pooled simulator recycled with CopyFrom, the way the
		// search and the load sweeps run it, bare and with telemetry
		// sampling at the default stride. Both stay at 0 allocs/op.
		{Name: "E7_SimThroughput", Op: pooledRun(false)},
		{Name: "E7_SimThroughput_Telemetry", Op: pooledRun(true)},
		// E8: the liveness search (local deadlocks, lassos) on E1.
		searchRow("E8_LivenessSearch", Search{Scenario: fig1, Liveness: true, Verdict: free, States: 2996}),
		// E10: E1 through the spill backend under a tiny resident budget,
		// so the visited set cycles through sorted runs on disk.
		one("E10_SearchOutOfCore", fig1, mcheck.SearchOptions{Visited: mcheck.VisitedConfig{
			Backend: mcheck.VisitedSpill, MemBudget: 64 << 10}}, free, 2996),
		{Name: "E11_TelemetryLongHorizon", Op: telemetryLongHorizon()},
		{Name: "EncodeTo", Op: encodeTo()},
		{Name: "Loadtest_Saturation", Op: loadtestSaturation},
		// The denominator of the reduction-ratio guard.
		one("Gen4_Stall4", gen4, stall(4), deadlock, 19733),
		// Partial-order and symmetry reduction on the searches above.
		one("E1_Figure1_Search_Reduced", fig1, reduced(none), free, 818),
		one("E3_Figure1_Skew1_Reduced", fig1, reduced(stall(1)), deadlock, 1263),
		searchRow("E5_Figure3_SearchAll_Reduced", figure3(reduced(none), [6]int{513, 428, 505, 665, 439, 3557})...),
		one("E6_Gen2_Stall2_Reduced", gen2, reduced(stall(2)), deadlock, 2181),
		one("Gen4_Stall4_Reduced", gen4, reduced(stall(4)), deadlock, 5424),
		one("Gen5_Stall5_Reduced", papernets.GenK(5).Scenario, reduced(stall(5)), deadlock, 7881),

		{Name: "E1_Figure1_CDG", Op: figure1CDG()},
		// The static Section 5 analysis, which proves Theorem 1 without
		// search.
		{Name: "E1_Figure1_Analyze", Op: figure1Analyze()},
		// The delta against E1 is the all-in cost of tracing a search.
		one("E1_Figure1_SearchTraced", fig1, mcheck.SearchOptions{Tracer: obsv.NewJSONL(io.Discard)}, free, 2996),
		{Name: "E3_RandomMinimalAnalyze", Op: randomMinimalAnalyze()},
		{Name: "E5_Figure3_Classify", Op: figure3Classify()},
		searchRow("E6_GenK/k=1", genK(1, 2996, 4768)...),
		searchRow("E6_GenK/k=2", genK(2, 6564, 8385)...),
		searchRow("E6_GenK/k=3", genK(3, 11524, 13271)...),
		{Name: "E7_MeshWorkload", Op: meshWorkload()},
		// Ablations of E1, which has one-flit buffers, minimal lengths,
		// FIFO arbitration and state-space search.
		one("Ablation_BufferDepth/depth=2", fig1.WithBufferDepth(2), none, free, 3486),
		one("Ablation_BufferDepth/depth=4", fig1.WithBufferDepth(4), none, free, 4050),
		one("Ablation_MessageLength/extra=2", longer(fig1, 2), none, free, 2820),
		one("Ablation_MessageLength/extra=4", longer(fig1, 4), none, free, 3016),
		{Name: "Ablation_Arbitration/fifo", Op: concreteRun(sim.FIFOArbiter{}, false)},
		{Name: "Ablation_Arbitration/priority", Op: concreteRun(sim.PriorityArbiter{Order: []int{1, 3, 0, 2}}, false)},
		{Name: "TracedSimRun/traced", Op: concreteRun(sim.FIFOArbiter{}, true)},
	}
}

func longer(sc sim.Scenario, extra int) sim.Scenario {
	lens := make([]int, len(sc.Msgs))
	for i, m := range sc.Msgs {
		lens[i] = m.Length + extra
	}
	return sc.WithLengths(lens)
}

// propertyChecks runs the Definition 7-9 property checkers (E2).
func propertyChecks() func() error {
	algs := []routing.Algorithm{
		routing.DimensionOrder(topology.NewMesh([]int{4, 4}, 1)),
		routing.ECube(topology.NewHypercube(4)),
	}
	return func() error {
		for _, alg := range algs {
			if !routing.CheckAll(alg).SuffixClosed {
				return fmt.Errorf("%s not suffix-closed", alg.Name())
			}
		}
		return nil
	}
}

// pooledRun runs one 64-flit message across a 16x16 mesh on a simulator
// recycled with CopyFrom, warmed once before timing.
func pooledRun(withTelemetry bool) func() error {
	g := topology.NewMesh([]int{16, 16}, 1)
	alg := routing.DimensionOrder(g)
	src, dst := g.NodeAt([]int{0, 0}), g.NodeAt([]int{15, 15})
	proto := sim.New(g.Network, sim.Config{})
	proto.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: 64, Path: alg.Path(src, dst)})
	s := sim.New(g.Network, sim.Config{})
	if withTelemetry {
		s.SetTelemetry(telemetry.NewCollector(g.Network.NumChannels(), telemetry.Config{}))
	}
	op := func() error {
		s.CopyFrom(proto)
		if out := s.Run(10_000); out.Result != sim.ResultDelivered {
			return fmt.Errorf("outcome %v", out.Result)
		}
		return nil
	}
	op()
	return op
}

// telemetryLongHorizon prices the long-horizon telemetry plane at 0
// allocs/op (E11): one collector on a monotone cycle clock, with adaptive
// stride and a delta-compressed window. One op is one closed frame of
// samples over a drifting hot set, the adapt step, the frame close and
// the window append, cycling through whole-block evictions once warm.
func telemetryLongHorizon() func() error {
	const (
		channels = 1024 // 16x16 mesh scale
		perFrame = 4
		hotSet   = 8
	)
	col := telemetry.NewCollector(channels, telemetry.Config{
		Stride: 4, FrameEvery: perFrame,
		Adaptive: true, MaxStride: 32, WindowBytes: 8 << 10,
	})
	cycle, flits, i := 0, int64(0), 0
	frame := func() error {
		for s := 0; s < perFrame; s++ {
			busy, occ, _ := col.Accum()
			for h := 0; h < hotSet; h++ {
				c := (i*7 + h*131) % channels
				busy[c]++
				occ[c] += 3
			}
			flits += 16
			cycle += col.CurrentStride()
			col.FinishSample(cycle, flits, hotSet)
		}
		i++
		return nil
	}
	for i < 400 { // warm past the first block evictions
		frame()
	}
	if col.Window().Stats().Dropped == 0 || col.CurrentStride() <= col.Stride() {
		return func() error { return fmt.Errorf("warmup neither evicted a window block nor adapted the stride") }
	}
	return frame
}

// encodeTo encodes a mid-flight Figure 1 state, at 0 allocs/op.
func encodeTo() func() error {
	s := papernets.Figure1().Scenario.NewSim()
	for i := 0; i < 4; i++ {
		s.Step()
	}
	buf := make([]byte, 0, 256)
	return func() error {
		buf = buf[:0]
		s.EncodeTo(&buf)
		if len(buf) == 0 {
			return fmt.Errorf("no encoding produced")
		}
		return nil
	}
}

// loadtestSaturation is the cmd/loadtest unit of work: one open-loop
// point below saturation on a 4x4 DOR mesh with uniform Bernoulli
// arrivals.
func loadtestSaturation() error {
	g := topology.NewMesh([]int{4, 4}, 1)
	r, err := traffic.Load{
		Alg: routing.DimensionOrder(g), Pattern: traffic.Uniform(g.Network.NumNodes()),
		Arrivals: traffic.Bernoulli(0.10), Length: 8,
		Warmup: 200, Measure: 500, Drain: 5000, Seed: 1,
	}.Run()
	if err == nil && (r.Deadlocked || r.Delivered == 0) {
		err = fmt.Errorf("delivered %d, deadlocked %v", r.Delivered, r.Deadlocked)
	}
	return err
}

// figure1CDG builds E1's channel dependency graph: one cycle of 14
// channels.
func figure1CDG() func() error {
	alg := papernets.Figure1().Alg
	return func() error {
		if cycles, _ := cdg.New(alg).Cycles(0); len(cycles) != 1 || len(cycles[0]) != 14 {
			return fmt.Errorf("%d cycles; want one of 14 channels", len(cycles))
		}
		return nil
	}
}

func figure1Analyze() func() error {
	alg := papernets.Figure1().Alg
	return func() error {
		if rep := core.Analyze(alg, core.Options{}); rep.Verdict != core.DeadlockFree {
			return fmt.Errorf("verdict %v", rep.Verdict)
		}
		return nil
	}
}

// randomMinimalAnalyze is Theorem 3 (E3): no cycle of a random minimal
// algorithm may classify unreachable.
func randomMinimalAnalyze() func() error {
	net := topology.NewMesh([]int{3, 3}, 1).Network
	return func() error {
		for seed := int64(0); seed < 4; seed++ {
			if rep := core.Analyze(routing.RandomMinimal(net, seed), core.Options{}); !rep.Acyclic && rep.Verdict == core.DeadlockFree {
				return fmt.Errorf("seed %d: minimal routing classified an unreachable cycle", seed)
			}
		}
		return nil
	}
}

// figure3Classify evaluates Theorem 5's conditions and the timing
// classifier on the six Figure 3 instances (E5).
func figure3Classify() func() error {
	cfgs := make([]unreachable.Config, 0, 6)
	for l := byte('a'); l <= 'f'; l++ {
		cfgs = append(cfgs, papernets.Figure3(l).Configuration())
	}
	return func() error {
		free := 0
		for _, cfg := range cfgs {
			if v, _ := unreachable.Classify(cfg); v == unreachable.FalseResourceCycle {
				if t5 := unreachable.Theorem5(cfg); !t5.Applicable || t5.Unreachable {
					free++
				}
			}
		}
		if free != 2 {
			return fmt.Errorf("%d unreachable figures; want 2 (a and b)", free)
		}
		return nil
	}
}

// meshWorkload is the Section 1 context experiment (E7): DOR on an 8x8
// mesh under uniform load.
func meshWorkload() func() error {
	g := topology.NewMesh([]int{8, 8}, 1)
	w := traffic.Workload{
		Alg: routing.DimensionOrder(g), Pattern: traffic.Uniform(64),
		Rate: 0.02, Length: 8, Duration: 200, Seed: 1,
	}
	return func() error {
		_, out, err := w.Run(sim.Config{}, 1_000_000)
		if err == nil && out.Result != sim.ResultDelivered {
			err = fmt.Errorf("outcome %v", out.Result)
		}
		return err
	}
}

// concreteRun simulates Figure 1's message set under arb, with a fresh
// JSONL trace sink on every run when traced. It delivers under any
// arbiter, since Theorem 1 assumes none.
func concreteRun(arb sim.Arbiter, traced bool) func() error {
	sc := papernets.Figure1().Scenario
	sc.Cfg.Arbiter = arb
	return func() error {
		s := sc.NewSim()
		if traced {
			s.SetTracer(obsv.NewJSONL(io.Discard))
		}
		if out := s.Run(10_000); out.Result != sim.ResultDelivered {
			return fmt.Errorf("outcome %v", out.Result)
		}
		return nil
	}
}
