package repro

// Guards for the arena-based simulator hot path: steady-state stepping
// must not allocate at all with tracing off, and must stay within a fixed
// small budget with a tracer attached. These pin the tentpole property of
// the hot-path refactor — every per-cycle structure (request lists,
// freeing masks, grant table, candidate buffers) lives in Sim-owned
// scratch arenas reset by epoch counters, never reallocated. A load-cell
// guard bounds what one open-loop traffic run costs end to end, another
// bounds the static decider (core.Analyze), whose cycle classification
// uses the same epoch-stamped scratch idiom, and another bounds the
// wait-for queries of the searches. TestRowBudgets pins the state count
// and the allocations of every row of the benchmark registry, and
// TestReductionGuard_Gen4 pins the reduction's headline ratio.

import (
	"runtime"
	"testing"

	"repro/internal/benchrows"
	"repro/internal/core"
	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/obsv/telemetry"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/waitfor"
)

// crossTrafficSim builds a 16x16 mesh under DOR with eight long
// corner-crossing messages, stepped past injection so the worms are in
// flight and every phase of step() (prediction, arbitration, movement,
// release) has work to do.
func crossTrafficSim(length int) *sim.Sim {
	g := topology.NewMesh([]int{16, 16}, 1)
	alg := routing.DimensionOrder(g)
	s := sim.New(g.Network, sim.Config{})
	for i := 0; i < 8; i++ {
		src := g.NodeAt([]int{2 * i, 0})
		dst := g.NodeAt([]int{15 - 2*i, 15})
		s.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: length, Path: alg.Path(src, dst)})
	}
	for i := 0; i < 64; i++ {
		s.Step()
	}
	return s
}

// TestStepZeroAllocSteadyState pins Step at exactly 0 allocs/op with no
// tracer: the acceptance bar of the arena refactor. Message length is
// chosen so the worms stay in flight for every measured iteration.
func TestStepZeroAllocSteadyState(t *testing.T) {
	s := crossTrafficSim(4096)
	if n := testing.AllocsPerRun(200, func() {
		s.Step()
	}); n != 0 {
		t.Fatalf("steady-state Step allocates %v allocs/op; the hot path must stay on the scratch arenas", n)
	}
	if s.AllDelivered() {
		t.Fatal("test bug: traffic drained before the measurement ended")
	}
}

// TestContentionsZeroAllocSteadyState pins the search's arbitration query
// at 0 allocs/op: the contentions and their contender lists are carved
// from Sim-owned scratch that the next call reuses. Three messages leave
// one node eastward, so their headers contend for one free channel.
func TestContentionsZeroAllocSteadyState(t *testing.T) {
	g := topology.NewMesh([]int{4, 4}, 1)
	alg := routing.DimensionOrder(g)
	s := sim.New(g.Network, sim.Config{})
	src := g.NodeAt([]int{0, 0})
	for y := 0; y < 3; y++ {
		dst := g.NodeAt([]int{3, y})
		s.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: 2, Path: alg.Path(src, dst)})
	}
	var cons []sim.Contention
	if n := testing.AllocsPerRun(200, func() {
		cons = s.Contentions()
	}); n != 0 {
		t.Fatalf("steady-state Contentions allocates %v allocs/op; it must return its scratch", n)
	}
	if len(cons) != 1 || len(cons[0].Contenders) != 3 {
		t.Fatalf("test bug: want one channel with three contenders, got %+v", cons)
	}
}

// TestStepTelemetryZeroAllocSteadyState pins the sampled hot path at the
// same 0 allocs/op as the unobserved one. The stride is set low enough
// that every measured window both takes samples and closes frames, so
// the accumulator scan, FinishSample, and the window append are all
// exercised. The window allocates only while it grows toward its byte
// budget, one buffer per sealed 16-frame block, so the sampled Step
// averages 0 allocs/op.
func TestStepTelemetryZeroAllocSteadyState(t *testing.T) {
	s := crossTrafficSim(4096)
	col := telemetry.NewCollector(s.Network().NumChannels(), telemetry.Config{Stride: 2, FrameEvery: 4})
	s.SetTelemetry(col)
	if n := testing.AllocsPerRun(200, func() {
		s.Step()
	}); n != 0 {
		t.Fatalf("sampled Step allocates %v allocs/op; telemetry must stay on the collector's fixed arrays", n)
	}
	if col.Samples() == 0 {
		t.Fatal("collector took no samples; the guard measured an unsampled path")
	}
	if col.FramesClosed() == 0 {
		t.Fatal("collector closed no frames; the guard never exercised the window append")
	}
}

// TestStepAdaptiveTelemetryZeroAllocSteadyState pins the adaptive-stride
// sampled hot path — stride adaptation in FinishSample plus the
// delta-compressed window appends and their whole-block evictions — at
// the same 0 allocs/op as the fixed-stride path. The window budget is
// tiny so the warmup drives it past its first eviction; the measured
// region then exercises free-list buffer recycling, not first-touch
// growth.
func TestStepAdaptiveTelemetryZeroAllocSteadyState(t *testing.T) {
	// Conflict-free row-parallel worms: each stays in its own mesh row
	// under DOR, so no sample ever sees a blocked dependency and the
	// quiet-streak backoff actually fires (cross traffic would pin the
	// stride at its base).
	g := topology.NewMesh([]int{16, 16}, 1)
	alg := routing.DimensionOrder(g)
	s := sim.New(g.Network, sim.Config{})
	for i := 0; i < 4; i++ {
		src := g.NodeAt([]int{4 * i, 0})
		dst := g.NodeAt([]int{4 * i, 15})
		s.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: 8192, Path: alg.Path(src, dst)})
	}
	col := telemetry.NewCollector(s.Network().NumChannels(), telemetry.Config{
		Stride: 1, FrameEvery: 2,
		Adaptive: true, MaxStride: 4, WindowBytes: 2 << 10,
	})
	s.SetTelemetry(col)
	for i := 0; i < 2000; i++ {
		s.Step()
	}
	if st := col.Window().Stats(); st.Dropped == 0 {
		t.Fatalf("warmup never evicted a window block (%+v); the guard would miss the recycling path", st)
	}
	if col.CurrentStride() <= col.Stride() {
		t.Fatalf("stride never adapted (still %d); the guard would measure the fixed-stride path", col.CurrentStride())
	}
	if n := testing.AllocsPerRun(200, func() {
		s.Step()
	}); n != 0 {
		t.Fatalf("adaptive sampled Step allocates %v allocs/op; adaptation and the window must stay on fixed arrays", n)
	}
	if s.AllDelivered() {
		t.Fatal("test bug: traffic drained before the measurement ended")
	}
}

// TestPooledRunZeroAllocSteadyState pins the full pooled cycle the search
// engine and traffic sweeps rely on: CopyFrom a prototype and Run to
// completion, allocation-free once the pool instance is warm.
func TestPooledRunZeroAllocSteadyState(t *testing.T) {
	g := topology.NewMesh([]int{16, 16}, 1)
	alg := routing.DimensionOrder(g)
	proto := sim.New(g.Network, sim.Config{})
	for i := 0; i < 8; i++ {
		src := g.NodeAt([]int{2 * i, 0})
		dst := g.NodeAt([]int{15 - 2*i, 15})
		proto.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: 64, Path: alg.Path(src, dst)})
	}
	s := sim.New(g.Network, sim.Config{})
	s.CopyFrom(proto)
	if out := s.Run(10_000); out.Result != sim.ResultDelivered {
		t.Fatalf("warmup run: %v", out.Result)
	}
	if n := testing.AllocsPerRun(20, func() {
		s.CopyFrom(proto)
		if out := s.Run(10_000); out.Result != sim.ResultDelivered {
			t.Fatalf("run: %v", out.Result)
		}
	}); n != 0 {
		t.Fatalf("pooled CopyFrom+Run allocates %v allocs/op in steady state", n)
	}
}

// TestAddResetZeroAllocSteadyState pins the traffic-engine ingestion path:
// recycling a simulator (Reset) and re-adding a message set reuses parked
// message slots and the path-validation bitset — no per-call maps. Each
// Add carves a fresh spec from chunks of up to 256, so the eight-message
// reload allocates one chunk about every 32 runs, which AllocsPerRun's
// whole-allocation average reports as 0.
func TestAddResetZeroAllocSteadyState(t *testing.T) {
	g := topology.NewMesh([]int{8, 8}, 1)
	alg := routing.DimensionOrder(g)
	specs := make([]sim.MessageSpec, 0, 8)
	for i := 0; i < 8; i++ {
		src := g.NodeAt([]int{i, 0})
		dst := g.NodeAt([]int{7 - i, 7})
		specs = append(specs, sim.MessageSpec{Src: src, Dst: dst, Length: 8, Path: alg.Path(src, dst)})
	}
	s := sim.New(g.Network, sim.Config{})
	reload := func() {
		s.Reset()
		for _, m := range specs {
			s.MustAdd(m)
		}
	}
	reload() // warm the parked slots
	if n := testing.AllocsPerRun(100, reload); n != 0 {
		t.Fatalf("Reset+Add allocates %v allocs/op in steady state; path validation or slot reuse regressed", n)
	}
}

// countingTracer is the cheapest possible sink: it proves the traced path
// itself (event construction and dispatch) stays allocation-bounded, as
// distinct from what a real sink does with the events.
type countingTracer struct{ events int }

func (c *countingTracer) Event(obsv.Event) { c.events++ }

// TestStepTracedAllocBounded bounds the traced hot path: with a tracer
// attached, Step may allocate only what event delivery itself needs. The
// budget is deliberately loose against the untraced 0 but tight against
// per-phase map churn creeping back in under cover of tracing.
func TestStepTracedAllocBounded(t *testing.T) {
	s := crossTrafficSim(4096)
	tr := &countingTracer{}
	s.SetTracer(tr)
	n := testing.AllocsPerRun(200, func() {
		s.Step()
	})
	const budget = 8
	if n > budget {
		t.Fatalf("traced Step allocates %v allocs/op; budget %d", n, budget)
	}
	if tr.events == 0 {
		t.Fatal("tracer saw no events; the guard measured an idle path")
	}
}

// TestAnalyzeAllocBounded bounds the static decider's allocations on one
// fixed cyclic algorithm (nine CDG cycles, 302 configurations, none
// screened by a corollary). Paths are fetched once per Analyze, kept
// configurations are carved from slabs, the timing systems are solved in
// stack scratch and a witness is one allocation, so the count sits near
// 1,070. Per-configuration Member slices and per-order permutation,
// constraint and time slices put it at 3,950, the earlier per-tiling
// dedupe keys and per-configuration maps at 26,000. The budget
// is the measured count plus about 10%. AllocsPerRun runs at
// GOMAXPROCS=1, so this is the serial path.
func TestAnalyzeAllocBounded(t *testing.T) {
	alg := routing.RandomMinimal(topology.NewMesh([]int{3, 3}, 1).Network, 3)
	rep := core.Analyze(alg, core.Options{})
	if rep.Acyclic || rep.Screen != "" || len(rep.Cycles) == 0 || len(rep.Cycles[0].Configs) == 0 {
		t.Fatalf("test bug: input must reach cycle decomposition (acyclic=%v screen=%q cycles=%d)",
			rep.Acyclic, rep.Screen, len(rep.Cycles))
	}
	n := testing.AllocsPerRun(5, func() {
		core.Analyze(alg, core.Options{})
	})
	const budget = 1180
	if n > budget {
		t.Fatalf("Analyze allocates %v allocs/op; budget %d", n, budget)
	}
	t.Logf("Analyze: %v allocs/op (budget %d)", n, budget)
}

// TestLoadCellAllocBounded bounds one open-loop load cell shaped like the
// benchmark's: an 8x8 DOR mesh at 0.02 messages per node per cycle, with
// an adaptive-stride telemetry collector and a per-source SLO bank. Its
// memory must follow the traffic: latency sketches sized to the latencies
// seen (all below 256 cycles here), message storage carved from the
// simulator's slabs, and routes built without per-hop slices. The cell
// measures about 2,890 allocations and 4.28 MB, and the budgets are those
// plus about 10%. Sketches allocated at their full 2¹⁶-entry layout cost
// 17 MiB here, and per-message or per-hop allocations blow the count
// budget: that code measured 45,385 allocations and 22.8 MB.
func TestLoadCellAllocBounded(t *testing.T) {
	g := topology.NewMesh([]int{8, 8}, 1)
	alg := routing.DimensionOrder(g)
	n, channels := g.NumNodes(), g.NumChannels()
	cell := func() traffic.LoadResult {
		col := telemetry.NewCollector(channels, telemetry.Config{Stride: 64, Adaptive: true, WindowBytes: 256 << 10})
		ld := traffic.Load{
			Alg: alg, Pattern: traffic.Uniform(n), Arrivals: traffic.Bernoulli(0.02),
			Length: 8, Warmup: 500, Measure: 2000, Drain: 20000, Seed: 7,
			Config: sim.Config{BufferDepth: 1}, Telemetry: col, Bank: telemetry.NewBank(n),
		}
		res, err := ld.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cell() // first-use runtime and package state stays out of the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := cell()
	runtime.ReadMemStats(&after)
	if res.Deadlocked || res.Delivered != res.Generated || res.LatencySamples == 0 {
		t.Fatalf("test bug: the cell must drain cleanly with samples (%+v)", res)
	}
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	const mallocBudget, byteBudget = 3200, 4_700_000
	t.Logf("load cell: %d allocs, %d bytes (budgets %d, %d)", mallocs, bytes, mallocBudget, byteBudget)
	if mallocs > mallocBudget || bytes > byteBudget {
		t.Fatalf("load cell allocates %d times, %d bytes; budgets %d, %d", mallocs, bytes, mallocBudget, byteBudget)
	}
}

// TestFindLocalAllocBounded bounds the wait-for queries the liveness
// search runs on every successor (FindLocal) and the witness search runs
// once per deadlock (Find), on Figure 1 after four steps, where messages
// wait but no cycle closes. Each query builds one slice-indexed graph and
// chases it on a preallocated stack: three allocations. The map-based
// graph with Tarjan SCCs cost 9 (FindLocal) and 8 (Find). The budget is
// the measured count; 10% headroom is less than one allocation. Under
// -race, which disables sync.Pool, the queries cost one more, so only the
// state is checked; CI runs the budget in its no-race step.
func TestFindLocalAllocBounded(t *testing.T) {
	s := papernets.Figure1().Scenario.NewSim()
	for i := 0; i < 4; i++ {
		s.Step()
	}
	blocked := false
	for id := 0; id < s.NumMessages(); id++ {
		if _, _, ok := s.WaitsFor(id); ok {
			blocked = true
		}
	}
	if !blocked || waitfor.Find(s) != nil {
		t.Fatal("test bug: the state must have a waiting message and no wait-for cycle")
	}
	if raceEnabled {
		return
	}
	const budget = 3
	for name, query := range map[string]func(){
		"FindLocal": func() { waitfor.FindLocal(s) },
		"Find":      func() { waitfor.Find(s) },
	} {
		if n := testing.AllocsPerRun(100, query); n > budget {
			t.Errorf("%s allocates %v allocs/op; budget %d", name, n, budget)
		}
	}
}

// rowAllocs is the measured allocation count of one op of every
// registry row at GOMAXPROCS=1, the highest of four measurements.
// TestRowBudgets allows 5% over it, and nothing over 0. Across
// measurements most search rows vary by about 1% and E4 by 4%. E10 varies
// by 6% (3,966 to 4,215 over sixteen runs, the highest is pinned): the
// per-process maphash seed decides how often its shards spill, and each
// spill allocates a run writer. A few non-search rows measured one to nine
// allocations above their pinned figure, one spec chunk per simulator
// built; their figures were kept, inside the 5%.
var rowAllocs = map[string]int64{
	"E1_Figure1_Search":              1583,
	"E2_PropertyChecks":              15572,
	"E3_Figure1_Skew1":               1920,
	"E4_Figure2_Search":              498,
	"E5_Figure3_SearchAll":           7043,
	"E6_Gen2_Stall2":                 2167,
	"E7_SimThroughput":               0,
	"E7_SimThroughput_Telemetry":     0,
	"E8_LivenessSearch":              10561,
	"E10_SearchOutOfCore":            4215,
	"E11_TelemetryLongHorizon":       0,
	"EncodeTo":                       0,
	"Loadtest_Saturation":            974,
	"Gen4_Stall4":                    2577,
	"E1_Figure1_Search_Reduced":      2731,
	"E3_Figure1_Skew1_Reduced":       3068,
	"E5_Figure3_SearchAll_Reduced":   15286,
	"E6_Gen2_Stall2_Reduced":         4078,
	"Gen4_Stall4_Reduced":            6345,
	"Gen5_Stall5_Reduced":            7613,
	"E1_Figure1_CDG":                 1147,
	"E1_Figure1_Analyze":             1970,
	"E1_Figure1_SearchTraced":        1583,
	"E3_RandomMinimalAnalyze":        10884,
	"E5_Figure3_Classify":            42,
	"E6_GenK/k=1":                    3499,
	"E6_GenK/k=2":                    4056,
	"E6_GenK/k=3":                    4505,
	"E7_MeshWorkload":                603,
	"Ablation_BufferDepth/depth=2":   1624,
	"Ablation_BufferDepth/depth=4":   1702,
	"Ablation_MessageLength/extra=2": 1584,
	"Ablation_MessageLength/extra=4": 1619,
	"Ablation_Arbitration/fifo":      46,
	"Ablation_Arbitration/priority":  45,
	"TracedSimRun/traced":            54,
}

// TestRowBudgets runs one op of every registry row at GOMAXPROCS=1. The
// op checks each search's verdict and exact state count; the test holds
// the op's allocations to rowAllocs plus 5%. A zero-allocation row (the
// steady-state simulator, the telemetry planes, the encoder) must stay at
// exactly 0, and every emission site in sim and mcheck sits behind a nil
// check, so a traceless search that allocates more means work was hoisted
// out of a guard. Under -race only the state counts are checked. The
// test takes seconds, so it skips in -short mode.
func TestRowBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the registry's full searches in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := benchrows.Rows()
	inRegistry := map[string]bool{}
	for _, row := range rows {
		inRegistry[row.Name] = true
		if _, ok := rowAllocs[row.Name]; !ok {
			t.Errorf("row %s has no allocation budget", row.Name)
		}
	}
	for name := range rowAllocs {
		if !inRegistry[name] {
			t.Errorf("budget %s names no registry row", name)
		}
	}
	for _, row := range rows {
		t.Run(row.Name, func(t *testing.T) {
			var opErr error
			n := int64(testing.AllocsPerRun(1, func() {
				if err := row.Op(); err != nil {
					opErr = err
				}
			}))
			if opErr != nil {
				t.Fatal(opErr)
			}
			if raceEnabled {
				return
			}
			measured := rowAllocs[row.Name]
			if limit := measured + measured/20; n > limit {
				t.Errorf("%d allocs/op; measured %d, limit %d", n, measured, limit)
			}
		})
	}
}

// TestReductionGuard_Gen4 pins the reduction's headline claim: on Gen(4)
// at its minimal deadlocking stall budget, partial-order plus symmetry
// reduction explores exactly the registry's state count, at least 3x
// below the unreduced count the registry pins for the same search. It
// runs in short mode; the reduced search is the cheap one.
func TestReductionGuard_Gen4(t *testing.T) {
	rows := map[string]benchrows.Row{}
	for _, row := range benchrows.Rows() {
		rows[row.Name] = row
	}
	red, unred := rows["Gen4_Stall4_Reduced"], rows["Gen4_Stall4"]
	if len(red.Searches) != 1 || len(unred.Searches) != 1 {
		t.Fatal("registry lacks the Gen4_Stall4 rows")
	}
	s := red.Searches[0]
	res, err := s.Run(s.Options)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduction != mcheck.RedAll {
		t.Fatalf("reduction = %v, want %v (gating cleared it?)", res.Reduction, mcheck.RedAll)
	}
	if unredStates := unred.Searches[0].States; unredStates < 3*res.States {
		t.Errorf("reduction ratio %d/%d below the 3x floor", unredStates, res.States)
	}
}
