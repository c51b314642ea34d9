// Command repro regenerates every experimental artifact of the paper —
// each figure and theorem of Schwiebert (SPAA '97) — and prints a
// paper-vs-measured report. EXPERIMENTS.md is the recorded output of this
// command.
//
// Experiments (see DESIGN.md for the index):
//
//	E1  Figure 1 / Theorem 1   cyclic CDG yet deadlock-free
//	E2  Corollaries 1-3        screened algorithm families
//	E3  Theorem 3              minimal routing admits no unreachable cycles
//	E4  Figure 2 / Theorem 4   two sharers always deadlock
//	E5  Figure 3 / Theorem 5   three-sharer classification
//	E6  Section 6 / Gen(k)     minimal clock-skew tolerance grows with k
//	E7  Section 1 context      wormhole latency/throughput characteristics
//	E8  Section 7 extensions   TheoremN generalization; adaptive routing
//	E9  beyond the paper       liveness taxonomy: local deadlock, livelock
//
// With no flags it runs every experiment once, in seconds; -only selects a
// subset. Each paper claim is printed as MATCHES PAPER or ** DIVERGES **,
// and the command exits 1 if any check diverged, so the report doubles as
// a regression gate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/cdg"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mcheck"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/unreachable"
	"repro/internal/waitfor"
)

var (
	only  = flag.String("only", "", "comma-separated experiment list, e.g. e1,e5 (default: all)")
	obsvF = cli.RegisterObsvFlags().WithTrace().WithProgress()
	redF  = cli.RegisterReductionFlag()
	red   mcheck.Reduction
	obs   *cli.Observer
	// diverged counts the checks that disagreed with the paper.
	diverged int
)

// search runs one experiment's exhaustive search with engine
// (mcheck.Search or mcheck.SearchLiveness) through the shared
// observability plumbing: -trace/-metrics, live -serve progress under
// the experiment's name, a -manifest run entry, and -reduction
// (verdict-preserving, so the regenerated report is unchanged; only
// state counts shrink).
func search(engine func(sim.Scenario, mcheck.SearchOptions) mcheck.SearchResult,
	name string, sc sim.Scenario, o mcheck.SearchOptions) mcheck.SearchResult {
	o.Reduction = red
	res := engine(sc, obs.SearchOptions(name, o))
	obs.SearchDone(name, sc, res)
	return res
}

func main() {
	flag.Parse()
	red = cli.Reduction(*redF)
	experiments := []struct {
		name string
		fn   func()
	}{{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"e7", e7}, {"e8", e8}, {"e9", e9}}
	want := map[string]bool{}
	if *only != "" {
		var valid []string
		for _, x := range experiments {
			valid = append(valid, x.name)
		}
		for _, e := range strings.Split(*only, ",") {
			name := strings.TrimSpace(strings.ToLower(e))
			if !slices.Contains(valid, name) {
				fmt.Fprintf(os.Stderr, "repro: -only: unknown experiment %q (valid: %s)\n", name, strings.Join(valid, ", "))
				os.Exit(2)
			}
			want[name] = true
		}
	}
	var err error
	obs, err = obsvF.Open("repro", nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, x := range experiments {
		if len(want) > 0 && !want[x.name] {
			continue
		}
		fmt.Printf("==== %s ====\n", strings.ToUpper(x.name))
		x.fn()
		fmt.Println()
	}
	if err := obs.Close(); err != nil {
		log.Fatal(err)
	}
	if diverged > 0 {
		fmt.Fprintf(os.Stderr, "repro: %d check(s) diverged from the paper\n", diverged)
		os.Exit(1)
	}
}

// check renders one paper claim's outcome and counts a divergence.
func check(ok bool) string {
	if ok {
		return "MATCHES PAPER"
	}
	diverged++
	return "** DIVERGES **"
}

// e1 — Figure 1 / Theorem 1: the Cyclic Dependency algorithm has a cyclic
// CDG yet is deadlock-free.
func e1() {
	pn := papernets.Figure1()
	g := cdg.New(pn.Alg)
	cycles, _ := g.Cycles(0)
	fmt.Printf("E1.1 CDG of the Cyclic Dependency algorithm: %d dependencies, %d cycle(s) of length %d\n",
		g.NumEdges(), len(cycles), len(cycles[0]))
	fmt.Printf("     paper: one 14-channel cycle           -> %s\n",
		check(len(cycles) == 1 && len(cycles[0]) == 14))

	props := routing.CheckAll(pn.Alg)
	fmt.Printf("E1.2 properties: %s\n", props)
	fmt.Printf("     paper: oblivious (CxN->C), nonminimal, not suffix-closed -> %s\n",
		check(props.RoutingFuncForm && !props.Minimal && !props.SuffixClosed))

	res := search(mcheck.Search, "e1.3 figure1", pn.Scenario, mcheck.SearchOptions{})
	fmt.Printf("E1.3 exhaustive search (all injection timings + arbitrations): %s over %d states (%.0f states/sec, peak visited %d, %d worker(s))\n",
		res.Verdict, res.States, res.StatesPerSec, res.PeakVisited, res.Workers)
	fmt.Printf("     paper Theorem 1: deadlock-free          -> %s\n",
		check(res.Verdict == mcheck.VerdictNoDeadlock))

	rep := core.Analyze(pn.Alg, core.Options{})
	fmt.Printf("E1.4 static analyzer: %s (%s)\n", rep.Verdict, rep.Reason)
	fmt.Printf("     paper Theorem 1                        -> %s\n",
		check(rep.Verdict == core.DeadlockFree))

	skew := search(mcheck.Search, "e1.5 figure1 skew1", pn.Scenario, mcheck.SearchOptions{StallBudget: 1, FreezeInTransitOnly: true})
	fmt.Printf("E1.5 with 1 cycle of router skew: %s\n", skew.Verdict)
	fmt.Printf("     paper Section 6: becomes a deadlock     -> %s\n",
		check(skew.Verdict == mcheck.VerdictDeadlock))

	sc := pn.Scenario
	sc.Msgs = append(append([]sim.MessageSpec(nil), sc.Msgs...), sc.Msgs[0], sc.Msgs[2])
	multi := search(mcheck.Search, "e1.6 figure1 multi", sc, mcheck.SearchOptions{MaxStates: 50_000_000})
	fmt.Printf("E1.6 with extra copies of M1 and M3: %s over %d states\n", multi.Verdict, multi.States)
	fmt.Printf("     paper Theorem 1 (any rate)              -> %s\n",
		check(multi.Verdict == mcheck.VerdictNoDeadlock))
}

// e2 — Corollaries 1-3: coherent / suffix-closed / input-channel
// independent algorithms cannot have unreachable configurations, and the
// classic algorithms have acyclic CDGs.
func e2() {
	type row struct {
		name string
		alg  routing.Algorithm
	}
	rows := []row{
		{"XY/DOR 4x4 mesh", routing.DimensionOrder(topology.NewMesh([]int{4, 4}, 1))},
		{"negative-first 4x4 mesh", routing.NegativeFirst(topology.NewMesh([]int{4, 4}, 1))},
		{"e-cube hypercube-4", routing.ECube(topology.NewHypercube(4))},
		{"Dally-Seitz 4x4 torus (2 VC)", routing.DallySeitzTorus(topology.NewTorus([]int{4, 4}, 2))},
	}
	allOK := true
	for _, r := range rows {
		props := routing.CheckAll(r.alg)
		g := cdg.New(r.alg)
		acyclic, _ := g.Acyclic()
		fmt.Printf("E2   %-30s suffix-closed=%-5v acyclic-CDG=%-5v\n", r.name, props.SuffixClosed, acyclic)
		allOK = allOK && props.SuffixClosed && acyclic
	}
	fmt.Printf("     paper: classic algorithms are suffix-closed with acyclic CDGs -> %s\n", check(allOK))
	// The converse screen: a suffix-closed algorithm WITH a cycle is
	// deadlock-capable (Corollary 2).
	ring := routing.ShortestBFS(topology.NewRing(4, false))
	rep := core.Analyze(ring, core.Options{})
	fmt.Printf("E2   unidirectional-ring shortest routing: screen=%q verdict=%s\n", rep.Screen, rep.Verdict)
	fmt.Printf("     paper Corollaries 1-2: cycle + suffix-closed => deadlock -> %s\n",
		check(rep.Screen != "" && rep.Verdict == core.DeadlockCapable))
}

// e3 — Theorem 3: minimal oblivious routing cannot produce the paper's
// unreachable cycles. Every paper construction is nonminimal, and random
// minimal algorithms never yield a cycle classified unreachable.
func e3() {
	nonminimal := true
	for _, pn := range []*papernets.Net{papernets.Figure1(), papernets.Figure2(), papernets.Figure3('a')} {
		if routing.CheckMinimal(pn.Alg) == nil {
			nonminimal = false
		}
	}
	fmt.Printf("E3.1 all paper constructions nonminimal: %v -> %s\n", nonminimal, check(nonminimal))

	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	nets := []*topology.Network{
		topology.NewMesh([]int{3, 3}, 1).Network,
		topology.NewRing(5, true),
		topology.NewHypercube(3),
	}
	cyclic, unreachableCycles := 0, 0
	for _, net := range nets {
		for _, seed := range seeds {
			alg := routing.RandomMinimal(net, seed)
			rep := core.Analyze(alg, core.Options{})
			if !rep.Acyclic {
				cyclic++
				if rep.Verdict == core.DeadlockFree {
					unreachableCycles++
				}
			}
		}
	}
	fmt.Printf("E3.2 random minimal algorithms (%d instances): %d had cyclic CDGs, %d of those were classified as having unreachable cycles\n",
		len(nets)*len(seeds), cyclic, unreachableCycles)
	fmt.Printf("     paper Theorem 3: minimal routing has no unreachable single-shared-channel cycles -> %s\n",
		check(unreachableCycles == 0))
}

// e4 — Figure 2 / Theorem 4: a channel shared by exactly two messages
// outside the cycle always yields a reachable deadlock.
func e4() {
	res := search(mcheck.Search, "e4.1 figure2", papernets.Figure2().Scenario, mcheck.SearchOptions{})
	fmt.Printf("E4.1 Figure 2 search: %s over %d states -> %s\n",
		res.Verdict, res.States, check(res.Verdict == mcheck.VerdictDeadlock))

	total, reachable := 0, 0
	for d1 := 2; d1 <= 5; d1++ {
		for d2 := 2; d2 <= 5; d2++ {
			for _, c1 := range []int{2, 3, 4} {
				for _, c2 := range []int{2, 3, 4} {
					pn := papernets.Build("two", []papernets.Entrant{
						{Shared: true, D: d1, C: c1},
						{Shared: true, D: d2, C: c2},
					})
					v, _ := unreachable.Classify(pn.Configuration())
					total++
					if v == unreachable.DeadlockReachable {
						reachable++
					}
				}
			}
		}
	}
	fmt.Printf("E4.2 two-sharer family: %d/%d reachable\n", reachable, total)
	fmt.Printf("     paper Theorem 4: all reachable           -> %s\n", check(reachable == total))
}

// e5 — Figure 3 / Theorem 5: the six sub-figures classify as the paper
// says, and the condition evaluator matches exhaustive search across the
// family.
func e5() {
	wantFree := map[byte]bool{'a': true, 'b': true, 'c': false, 'd': false, 'e': false, 'f': false}
	for letter := byte('a'); letter <= 'f'; letter++ {
		pn := papernets.Figure3(letter)
		rep := core.Analyze(pn.Alg, core.Options{})
		free := rep.Verdict == core.DeadlockFree
		status := "deadlock"
		if free {
			status = "false resource cycle"
		}
		detail := ""
		if t5 := unreachable.Theorem5(pn.Configuration()); t5.Applicable && !t5.Unreachable {
			var bad []string
			for _, c := range t5.Conditions {
				if !c.Holds {
					bad = append(bad, fmt.Sprintf("%d:%s", c.Number, c.Name))
				}
			}
			detail = " (violated: " + strings.Join(bad, ", ") + ")"
		}
		fmt.Printf("E5.%c Figure 3(%c): %s%s -> %s\n", letter, letter, status, detail, check(free == wantFree[letter]))
	}

	// Family agreement between the Theorem 5 evaluator and the model
	// checker (with one interposed copy per message).
	agree, total := 0, 0
	ds := [][3]int{{4, 2, 3}, {5, 2, 3}, {6, 2, 3}, {5, 3, 4}, {4, 3, 2}, {3, 3, 2}}
	cs := [][3]int{{2, 2, 2}, {4, 4, 4}, {5, 2, 4}, {3, 4, 2}}
	for _, D := range ds {
		for _, C := range cs {
			pn := papernets.ThreeSharer("fam", papernets.ThreeSharerParams{D: D, C: C})
			t5 := unreachable.Theorem5(pn.Configuration())
			truth := groundTruthWithCopies(pn.Scenario)
			total++
			if t5.Unreachable == truth {
				agree++
			}
		}
	}
	fmt.Printf("E5.g Theorem 5 iff across %d instances: %d mismatches -> %s\n",
		total, total-agree, check(total == agree))
}

func groundTruthWithCopies(sc sim.Scenario) bool {
	if search(mcheck.Search, "e5 "+sc.Name, sc, mcheck.SearchOptions{MaxStates: 20_000_000}).Verdict == mcheck.VerdictDeadlock {
		return false
	}
	for pos := range sc.Msgs {
		out := sc
		out.Msgs = append(append([]sim.MessageSpec(nil), sc.Msgs...), sc.Msgs[pos])
		if search(mcheck.Search, fmt.Sprintf("e5 %s copy%d", sc.Name, pos), out, mcheck.SearchOptions{MaxStates: 20_000_000}).Verdict == mcheck.VerdictDeadlock {
			return false
		}
	}
	return true
}

// e6 — Section 6 / Gen(k): the minimal adversarial stall needed for a
// deadlock grows linearly with k (the paper: at least k cycles).
func e6() {
	const maxK = 5
	fmt.Println("E6   k | minimal stall cycles | paper bound (>= k)")
	allOK := true
	for k := 1; k <= maxK; k++ {
		pn := papernets.GenK(k)
		minimal := -1
		for b := 0; b <= k+2; b++ {
			res := search(mcheck.Search, fmt.Sprintf("e6 gen%d stall%d", k, b), pn.Scenario, mcheck.SearchOptions{
				StallBudget: b, FreezeInTransitOnly: true, MaxStates: 50_000_000,
			})
			if res.Verdict == mcheck.VerdictDeadlock {
				minimal = b
				break
			}
		}
		ok := minimal >= k
		allOK = allOK && ok
		fmt.Printf("     %d | %20d | %s\n", k, minimal, check(ok))
	}
	fmt.Printf("     measured: minimal stall = k exactly      -> %s\n", check(allOK))
}

// e7 — Section 1 context: wormhole latency is largely insensitive to
// distance (vs store-and-forward's distance x length), and deadlock-free
// routing sustains load where naive routing deadlocks.
func e7() {
	// Latency vs distance on an unloaded 8x8 mesh, message length 16.
	g := topology.NewMesh([]int{8, 8}, 1)
	alg := routing.DimensionOrder(g)
	const L = 16
	fmt.Println("E7.1 unloaded latency vs distance (8x8 mesh, 16-flit messages)")
	fmt.Println("     hops | wormhole (measured) | store-and-forward (analytic)")
	okShape := true
	for _, h := range []int{1, 4, 8, 14} {
		src := g.NodeAt([]int{0, 0})
		var dst topology.NodeID
		if h <= 7 {
			dst = g.NodeAt([]int{0, h})
		} else {
			dst = g.NodeAt([]int{h - 7, 7})
		}
		s := sim.New(g.Network, sim.Config{})
		id := s.MustAdd(sim.MessageSpec{Src: src, Dst: dst, Length: L, Path: alg.Path(src, dst)})
		s.Run(10_000)
		lat := s.Message(id).DeliveredAt + 1
		saf := h * L
		fmt.Printf("     %4d | %19d | %d\n", h, lat, saf)
		if lat != h+L-1+1 { // header pipeline + drain, inclusive count
			okShape = false
		}
	}
	fmt.Printf("     paper: wormhole ~ distance + length, SAF ~ distance x length -> %s\n", check(okShape))

	// Throughput under uniform load: deadlock-free DOR vs deadlock-prone
	// shortest routing on a unidirectional ring.
	w := traffic.Workload{
		Alg: alg, Pattern: traffic.Uniform(64), Rate: 0.02, Length: 8, Duration: 300, Seed: 42,
	}
	stats, out, err := w.Run(sim.Config{}, 1_000_000)
	if err != nil {
		fmt.Printf("E7.2 error: %v -> %s\n", err, check(false))
		return
	}
	fmt.Printf("E7.2 DOR 8x8 mesh, uniform 0.02: %s, %d/%d delivered, avg latency %.1f, throughput %.3f flits/cycle\n",
		out.Result, stats.Delivered, stats.Messages, stats.AvgLatency, stats.Throughput)

	ring := topology.NewRing(8, false)
	rw := traffic.Workload{
		Alg: routing.ShortestBFS(ring), Pattern: traffic.Uniform(8), Rate: 0.5, Length: 8, Duration: 100, Seed: 42,
	}
	_, rout, err := rw.Run(sim.Config{}, 1_000_000)
	if err != nil {
		fmt.Printf("E7.3 error: %v -> %s\n", err, check(false))
		return
	}
	fmt.Printf("E7.3 naive ring routing under load: %s -> %s\n", rout.Result,
		check(rout.Result == sim.ResultDeadlock && out.Result == sim.ResultDelivered))
}

// e8 — the paper's Section 7 future-work extensions, built and measured:
// the N-member generalization of Theorem 5 and adaptive routing.
func e8() {
	// TheoremN vs Theorem 5 on three sharers, and on Figure 1's four.
	f1 := papernets.Figure1().Configuration()
	tn := unreachable.TheoremN(f1)
	fmt.Printf("E8.1 TheoremN on Figure 1's four-member configuration: unreachable=%v -> %s\n",
		tn.Unreachable, check(tn.Unreachable))

	// Adaptive routing: exhaustive verification on the 2x2 mesh with four
	// corner-to-corner messages.
	type inst struct {
		name string
		sc   sim.Scenario
		want mcheck.Verdict
	}
	buildAdaptive := func(vcs int, mk func(*topology.Grid) adaptive.Algorithm) (sim.Scenario, string) {
		g := topology.NewMesh([]int{2, 2}, vcs)
		alg := mk(g)
		sc := sim.Scenario{Name: alg.Name, Net: g.Network, Cfg: sim.Config{SameCycleHandoff: true}}
		corners := [][2][2]int{
			{{0, 0}, {1, 1}}, {{1, 1}, {0, 0}}, {{0, 1}, {1, 0}}, {{1, 0}, {0, 1}},
		}
		for _, c := range corners {
			sc.Msgs = append(sc.Msgs, alg.Spec(g.NodeAt(c[0][:]), g.NodeAt(c[1][:]), 3, 0))
		}
		return sc, alg.Name
	}
	faSc, _ := buildAdaptive(1, adaptive.FullyAdaptiveMinimal)
	wfSc, _ := buildAdaptive(1, adaptive.WestFirst)
	duSc, _ := buildAdaptive(2, adaptive.DuatoMesh)
	insts := []inst{
		{"fully adaptive minimal (1 VC)", faSc, mcheck.VerdictDeadlock},
		{"west-first turn model (1 VC) ", wfSc, mcheck.VerdictNoDeadlock},
		{"duato escape protocol (2 VC) ", duSc, mcheck.VerdictNoDeadlock},
	}
	for _, in := range insts {
		res := search(mcheck.Search, "e8.2 "+strings.TrimSpace(in.name), in.sc, mcheck.SearchOptions{MaxStates: 50_000_000})
		fmt.Printf("E8.2 %s exhaustive: %s over %d states (%.0f states/sec) -> %s\n",
			in.name, res.Verdict, res.States, res.StatesPerSec, check(res.Verdict == in.want))
	}
}

// e9 — beyond the paper: the liveness taxonomy the global Definition 6
// verdict cannot distinguish. Local deadlock (a permanently dead
// subnetwork inside a live network) on the two-ring gallery scenario, and
// livelock (the stale-selection adversary starving messages without any
// Definition 6 cycle) — each with an independently verified witness.
func e9() {
	// Local deadlock: ring A's 4-cycle kills channels 0..3 forever while
	// ring B's message still delivers.
	sc := papernets.LocalRings()
	res := search(mcheck.SearchLiveness, "e9.1 localrings", sc, mcheck.SearchOptions{})
	ok := res.Verdict == mcheck.VerdictLocalDeadlock && res.Local != nil &&
		fmt.Sprint(res.Local.Blocked) == "[0 1 2 3]"
	if ok {
		ok = waitfor.VerifyLocal(mcheck.Replay(sc, res.Trace), res.Local) == nil
	}
	fmt.Printf("E9.1 two disjoint rings: %s over %d states, local witness %s\n",
		res.Verdict, res.States, res.Local)
	fmt.Printf("     expected: local deadlock, blocked subnetwork exactly ring A, witness verifies on replay -> %s\n",
		check(ok))

	// Livelock: deadlock-free under the plain engine, a replayable lasso
	// under the stale-selection adversary.
	lsc := papernets.StaleSelection()
	plain := search(mcheck.Search, "e9.2 staleselection plain", lsc, mcheck.SearchOptions{})
	fmt.Printf("E9.2 stale selection, plain engine: %s over %d states -> %s\n",
		plain.Verdict, plain.States, check(plain.Verdict == mcheck.VerdictNoDeadlock))

	liv := search(mcheck.SearchLiveness, "e9.3 staleselection liveness", lsc, mcheck.SearchOptions{})
	lok := liv.Verdict == mcheck.VerdictLivelock && liv.Lasso != nil &&
		mcheck.VerifyLasso(lsc, liv.Lasso) == nil
	if lok {
		// Re-execute the lasso independently: after one loop iteration and
		// after four, the state encoding is pinned and every starved
		// message's progress counter is frozen.
		one := mcheck.ReplayLasso(lsc, liv.Lasso, 1)
		four := mcheck.ReplayLasso(lsc, liv.Lasso, 4)
		var a, b []byte
		one.EncodeTo(&a)
		four.EncodeTo(&b)
		lok = string(a) == string(b)
		for _, id := range liv.Lasso.Starved {
			if one.Progress(id) != four.Progress(id) {
				lok = false
			}
		}
	}
	if liv.Lasso != nil {
		fmt.Printf("E9.3 stale selection, liveness engine: %s, lasso stem %d / loop %d, starved %v\n",
			liv.Verdict, len(liv.Lasso.Stem), len(liv.Lasso.Loop), liv.Lasso.Starved)
	} else {
		fmt.Printf("E9.3 stale selection, liveness engine: %s (no lasso)\n", liv.Verdict)
	}
	fmt.Printf("     expected: livelock with a verified lasso; replaying the loop never advances a starved message -> %s\n",
		check(lok))
}
