// Command benchjson runs the repository's headline benchmarks (one per
// experiment E1-E7, plus the encoder and allocation microbenches) through
// testing.Benchmark and writes the results as BENCH_mcheck.json. The JSON
// is byte-stable: fixed entry order, fixed field order, integral values —
// only the measured numbers change between runs, so diffs of the artifact
// read as perf deltas. Every benchmark's verdict is asserted before it is
// timed; a wrong verdict (or a panic) exits nonzero, which is what the CI
// bench job keys off.
//
//	benchjson            # writes ./BENCH_mcheck.json
//	benchjson -o -       # writes to stdout
//	benchjson -quick     # ~10x faster, noisier numbers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/cli"
	"repro/internal/mcheck"
	"repro/internal/obsv/manifest"
	"repro/internal/obsv/serve"
	"repro/internal/obsv/telemetry"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

type entry struct {
	Name         string `json:"name"`
	NsPerOp      int64  `json:"ns_per_op"`
	AllocsPerOp  int64  `json:"allocs_per_op"`
	BytesPerOp   int64  `json:"bytes_per_op"`
	States       int    `json:"states,omitempty"`
	StatesPerSec int64  `json:"states_per_sec,omitempty"`
	Verdict      string `json:"verdict,omitempty"`
	Reduction    string `json:"reduction,omitempty"`
	StatesPruned int    `json:"states_pruned,omitempty"`
	// Visited-set backend accounting, recorded for non-default backends.
	// Spill bytes are deterministic (the merge inserts states in a fixed
	// order), so the column diffs clean like the state counts do.
	VisitedBackend string `json:"visited_backend,omitempty"`
	SpillBytes     int64  `json:"spill_bytes,omitempty"`
}

type report struct {
	GoMaxProcs int     `json:"go_max_procs"`
	Workers    int     `json:"search_workers"`
	Entries    []entry `json:"benchmarks"`
}

var (
	quick     = flag.Bool("quick", false, "run each benchmark for ~0.1s instead of ~1s")
	reduction = flag.String("reduction", "all", "reduction mode for the *_Reduced rows (none skips them)")
	obsvF     = cli.RegisterObsvFlags()
	obs       *cli.Observer
)

func bench(f func(b *testing.B)) testing.BenchmarkResult {
	return testing.Benchmark(f)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

// searchEntry times an exhaustive search, asserting its verdict first and
// deriving states/sec from the per-op time and the (deterministic) state
// count.
func searchEntry(name string, sc sim.Scenario, opts mcheck.SearchOptions, want mcheck.Verdict) entry {
	// Only the verdict probe reports through the observability sinks; the
	// timed loop below runs with the caller's exact options so tracing or
	// serving never perturbs the measured numbers.
	probeOpts := opts
	probeOpts.Tracer = obs.Tracer
	probeOpts.Metrics = obs.Metrics
	probeOpts.Progress = obs.SearchProgress(name)
	probe := mcheck.Search(sc, probeOpts)
	if probe.Verdict != want {
		fail("%s: verdict %v; want %v", name, probe.Verdict, want)
	}
	r := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mcheck.Search(sc, opts)
		}
	})
	e := entry{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		States:      probe.States,
		Verdict:     probe.Verdict.String(),
	}
	if probe.Reduction != mcheck.RedNone {
		e.Reduction = probe.Reduction.String()
		e.StatesPruned = probe.StatesPruned
	}
	if v := probe.Visited; v.Backend != "" && v.Backend != "mem" {
		e.VisitedBackend = v.Backend
		e.SpillBytes = v.SpillBytes
	}
	if e.NsPerOp > 0 {
		e.StatesPerSec = int64(float64(probe.States) / (float64(e.NsPerOp) / 1e9))
	}
	return e
}

// livenessEntry is searchEntry for the liveness engine.
func livenessEntry(name string, sc sim.Scenario, opts mcheck.SearchOptions, want mcheck.Verdict) entry {
	probeOpts := opts
	probeOpts.Tracer = obs.Tracer
	probeOpts.Metrics = obs.Metrics
	probeOpts.Progress = obs.SearchProgress(name)
	probe := mcheck.SearchLiveness(sc, probeOpts)
	if probe.Verdict != want {
		fail("%s: verdict %v; want %v", name, probe.Verdict, want)
	}
	r := bench(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mcheck.SearchLiveness(sc, opts)
		}
	})
	e := entry{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		States:      probe.States,
		Verdict:     probe.Verdict.String(),
	}
	if e.NsPerOp > 0 {
		e.StatesPerSec = int64(float64(probe.States) / (float64(e.NsPerOp) / 1e9))
	}
	return e
}

func plainEntry(name string, f func(b *testing.B)) entry {
	r := bench(f)
	return entry{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func main() {
	testing.Init() // registers test.benchtime so quick mode can shrink it
	out := flag.String("o", "BENCH_mcheck.json", "output path, or - for stdout")
	flag.Parse()
	if *quick {
		if err := flag.Set("test.benchtime", "100ms"); err != nil {
			fail("set benchtime: %v", err)
		}
	}

	var err error
	obs, err = obsvF.Open("benchjson", nil)
	if err != nil {
		fail("%v", err)
	}

	rep := report{GoMaxProcs: runtime.GOMAXPROCS(0), Workers: runtime.GOMAXPROCS(0)}
	add := func(e entry) {
		rep.Entries = append(rep.Entries, e)
		obs.RecordRun(manifest.Run{
			Name: e.Name, Verdict: e.Verdict,
			States: e.States, StatesPerSec: e.StatesPerSec,
			NsPerOp: e.NsPerOp, AllocsPerOp: e.AllocsPerOp, BytesPerOp: e.BytesPerOp,
			Reduction: e.Reduction, StatesPruned: e.StatesPruned,
			VisitedBackend: e.VisitedBackend, SpillBytes: e.SpillBytes,
		})
		obs.Publish(serve.Snapshot{Source: "run", Name: e.Name, States: e.States, StatesPerSec: e.StatesPerSec})
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
		if e.StatesPerSec > 0 {
			fmt.Fprintf(os.Stderr, " %10d states/sec", e.StatesPerSec)
		}
		fmt.Fprintln(os.Stderr)
	}

	// E1: Theorem 1 — Figure 1 exhaustive search (the headline workload).
	add(searchEntry("E1_Figure1_Search", papernets.Figure1().Scenario,
		mcheck.SearchOptions{}, mcheck.VerdictNoDeadlock))
	// E2: property checkers over the classic algorithm suite.
	add(plainEntry("E2_PropertyChecks", func(b *testing.B) {
		algs := []routing.Algorithm{
			routing.DimensionOrder(topology.NewMesh([]int{4, 4}, 1)),
			routing.ECube(topology.NewHypercube(4)),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, alg := range algs {
				if !routing.CheckAll(alg).SuffixClosed {
					fail("E2: %s not suffix-closed", alg.Name())
				}
			}
		}
	}))
	// E3: Section 6 skew variant of the Figure 1 search (deadlock at
	// budget 1) — exercises freeze enumeration.
	add(searchEntry("E3_Figure1_Skew1", papernets.Figure1().Scenario,
		mcheck.SearchOptions{StallBudget: 1, FreezeInTransitOnly: true}, mcheck.VerdictDeadlock))
	// E4: Theorem 4 — Figure 2 two-sharer deadlock search.
	add(searchEntry("E4_Figure2_Search", papernets.Figure2().Scenario,
		mcheck.SearchOptions{}, mcheck.VerdictDeadlock))
	// E5: Theorem 5 — the six Figure 3 searches, reported as one op. The
	// stall-budget-0 verdicts below are the recorded single-instance ground
	// truth: (a)-(d) need adversarial skew or interposed copies to deadlock
	// (cmd/repro's E5 exercises those variants via the static analyzer),
	// while (e) and (f) deadlock outright.
	e5Deadlocks := map[byte]bool{'e': true, 'f': true}
	var figs []sim.Scenario
	e5States := 0
	for l := byte('a'); l <= 'f'; l++ {
		sc := papernets.Figure3(l).Scenario
		want := mcheck.VerdictNoDeadlock
		if e5Deadlocks[l] {
			want = mcheck.VerdictDeadlock
		}
		res := mcheck.Search(sc, mcheck.SearchOptions{})
		if res.Verdict != want {
			fail("E5: figure3%c verdict %v; want %v at stall budget 0", l, res.Verdict, want)
		}
		figs = append(figs, sc)
		e5States += res.States
	}
	e5 := plainEntry("E5_Figure3_SearchAll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sc := range figs {
				mcheck.Search(sc, mcheck.SearchOptions{})
			}
		}
	})
	e5.States = e5States
	if e5.NsPerOp > 0 {
		e5.StatesPerSec = int64(float64(e5States) / (float64(e5.NsPerOp) / 1e9))
	}
	add(e5)
	// E6: Gen(2) at its minimal deadlocking stall budget.
	add(searchEntry("E6_Gen2_Stall2", papernets.GenK(2).Scenario,
		mcheck.SearchOptions{StallBudget: 2, FreezeInTransitOnly: true}, mcheck.VerdictDeadlock))
	// E7: raw simulator throughput (no search), measured the way the search
	// engine and the load sweeps actually run it — a pooled instance
	// recycled via CopyFrom, so steady-state stepping is what gets timed.
	// This row must stay at 0 allocs/op: the whole hot path lives on the
	// simulator's scratch arenas.
	add(plainEntry("E7_SimThroughput", func(b *testing.B) {
		g := topology.NewMesh([]int{16, 16}, 1)
		alg := routing.DimensionOrder(g)
		src, dst := g.NodeAt([]int{0, 0}), g.NodeAt([]int{15, 15})
		proto := sim.New(g.Network, sim.Config{})
		proto.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: 64, Path: alg.Path(src, dst)})
		s := sim.New(g.Network, sim.Config{})
		s.CopyFrom(proto) // warm the pooled instance before timing
		if out := s.Run(10_000); out.Result != sim.ResultDelivered {
			fail("E7: %v", out.Result)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.CopyFrom(proto)
			if out := s.Run(10_000); out.Result != sim.ResultDelivered {
				fail("E7: %v", out.Result)
			}
		}
	}))
	// E7 with the telemetry plane attached at the default stride: the
	// sampled path must also stay at 0 allocs/op, and the ns/op delta
	// against the plain E7 row is the telemetry overhead the CI benchdiff
	// gate watches.
	add(plainEntry("E7_SimThroughput_Telemetry", func(b *testing.B) {
		g := topology.NewMesh([]int{16, 16}, 1)
		alg := routing.DimensionOrder(g)
		src, dst := g.NodeAt([]int{0, 0}), g.NodeAt([]int{15, 15})
		proto := sim.New(g.Network, sim.Config{})
		proto.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: 64, Path: alg.Path(src, dst)})
		s := sim.New(g.Network, sim.Config{})
		s.SetTelemetry(telemetry.NewCollector(g.Network.NumChannels(), telemetry.Config{}))
		s.CopyFrom(proto)
		if out := s.Run(10_000); out.Result != sim.ResultDelivered {
			fail("E7_Telemetry: %v", out.Result)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.CopyFrom(proto)
			if out := s.Run(10_000); out.Result != sim.ResultDelivered {
				fail("E7_Telemetry: %v", out.Result)
			}
		}
	}))
	// E8: the liveness engine over the same headline workload as E1 — the
	// DFS with local-deadlock checks and lasso detection, priced against
	// the plain BFS row above.
	add(livenessEntry("E8_LivenessSearch", papernets.Figure1().Scenario,
		mcheck.SearchOptions{}, mcheck.VerdictNoDeadlock))
	// E10: the out-of-core path — the E1 search through the spill backend
	// under a deliberately tiny resident budget, so the visited set cycles
	// through sorted runs on disk. The verdict and state count must match E1
	// exactly (the backend-parity contract); the ns/op delta against E1 is
	// the price of bounded memory.
	add(searchEntry("E10_SearchOutOfCore", papernets.Figure1().Scenario,
		mcheck.SearchOptions{Visited: mcheck.VisitedConfig{
			Backend:   mcheck.VisitedSpill,
			MemBudget: 64 << 10,
		}}, mcheck.VerdictNoDeadlock))
	// E11: the long-horizon telemetry campaign — one collector fed for the
	// whole benchmark on a monotone cycle clock, with adaptive stride and
	// a delta-compressed window attached. One op is one closed frame:
	// FrameEvery samples filled with a drifting hot-set (the window's
	// worst common case: mostly-small deltas with occasional channel-set
	// churn), the adapt step, the frame close, and the window append —
	// cycling through whole-block evictions once warm. The row prices the
	// long-horizon plane itself and must stay at 0 allocs/op.
	add(plainEntry("E11_TelemetryLongHorizon", func(b *testing.B) {
		const (
			channels = 1024 // 16x16 mesh scale
			perFrame = 4
			hotSet   = 8
		)
		col := telemetry.NewCollector(channels, telemetry.Config{
			Stride: 4, FrameEvery: perFrame, Ring: 8,
			Adaptive: true, MaxStride: 32, WindowBytes: 8 << 10,
		})
		cycle, flits := 0, int64(0)
		frame := func(i int) {
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
		}
		for i := 0; i < 400; i++ { // warm past the first block evictions
			frame(i)
		}
		if col.Window().Stats().Dropped == 0 {
			fail("E11: window never evicted during warmup")
		}
		if col.CurrentStride() <= col.Stride() {
			fail("E11: stride never adapted during warmup")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame(i)
		}
	}))
	// Encoder microbench: EncodeTo on a mid-flight state.
	add(plainEntry("EncodeTo", func(b *testing.B) {
		s := papernets.Figure1().Scenario.NewSim()
		for i := 0; i < 4; i++ {
			s.Step()
		}
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			s.EncodeTo(&buf)
		}
	}))

	// Loadtest: one open-loop saturation point (4x4 mesh, DOR, uniform
	// Bernoulli arrivals below saturation) — the cmd/loadtest unit of work,
	// priced so sweep-cost regressions show up next to the search rows.
	loadPoint := func() traffic.Load {
		g := topology.NewMesh([]int{4, 4}, 1)
		return traffic.Load{
			Alg: routing.DimensionOrder(g), Pattern: traffic.Uniform(g.Network.NumNodes()),
			Arrivals: traffic.Bernoulli(0.10), Length: 8,
			Warmup: 200, Measure: 500, Drain: 5000, Seed: 1,
		}
	}
	if r, err := loadPoint().Run(); err != nil || r.Deadlocked || r.Delivered == 0 {
		fail("Loadtest: probe run delivered=%d deadlocked=%v err=%v", r.Delivered, r.Deadlocked, err)
	}
	add(plainEntry("Loadtest_Saturation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := loadPoint().Run(); err != nil {
				fail("Loadtest: %v", err)
			}
		}
	}))

	// Unreduced Gen(4) at its minimal deadlocking budget: the baseline the
	// reduction-ratio guard (reduction_guard_test.go) divides against.
	gen4 := papernets.GenK(4).Scenario
	gen4Opts := mcheck.SearchOptions{StallBudget: 4, FreezeInTransitOnly: true}
	add(searchEntry("Gen4_Stall4", gen4, gen4Opts, mcheck.VerdictDeadlock))

	// Reduced variants: the same searches under the state-space
	// reductions (-reduction selects the mode, "none" skips these rows),
	// plus the larger Gen(k) instances the reductions make routine.
	// Unreduced rows keep their historical names, so existing baselines
	// stay directly comparable.
	red, err := mcheck.ParseReduction(*reduction)
	if err != nil {
		fail("%v", err)
	}
	if red != mcheck.RedNone {
		withRed := func(o mcheck.SearchOptions) mcheck.SearchOptions {
			o.Reduction = red
			return o
		}
		add(searchEntry("E1_Figure1_Search_Reduced", papernets.Figure1().Scenario,
			withRed(mcheck.SearchOptions{}), mcheck.VerdictNoDeadlock))
		add(searchEntry("E3_Figure1_Skew1_Reduced", papernets.Figure1().Scenario,
			withRed(mcheck.SearchOptions{StallBudget: 1, FreezeInTransitOnly: true}), mcheck.VerdictDeadlock))
		e5rStates, e5rPruned := 0, 0
		for _, sc := range figs {
			res := mcheck.Search(sc, withRed(mcheck.SearchOptions{}))
			e5rStates += res.States
			e5rPruned += res.StatesPruned
		}
		e5r := plainEntry("E5_Figure3_SearchAll_Reduced", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sc := range figs {
					mcheck.Search(sc, withRed(mcheck.SearchOptions{}))
				}
			}
		})
		e5r.States = e5rStates
		e5r.Reduction = red.String()
		e5r.StatesPruned = e5rPruned
		if e5r.NsPerOp > 0 {
			e5r.StatesPerSec = int64(float64(e5rStates) / (float64(e5r.NsPerOp) / 1e9))
		}
		add(e5r)
		add(searchEntry("E6_Gen2_Stall2_Reduced", papernets.GenK(2).Scenario,
			withRed(mcheck.SearchOptions{StallBudget: 2, FreezeInTransitOnly: true}), mcheck.VerdictDeadlock))
		add(searchEntry("Gen4_Stall4_Reduced", gen4, withRed(gen4Opts), mcheck.VerdictDeadlock))
		add(searchEntry("Gen5_Stall5_Reduced", papernets.GenK(5).Scenario,
			withRed(mcheck.SearchOptions{StallBudget: 5, FreezeInTransitOnly: true}), mcheck.VerdictDeadlock))
	}

	if err := obs.Close(); err != nil {
		fail("%v", err)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("marshal: %v", err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fail("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
