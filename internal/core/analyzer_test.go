package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/mcheck"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestAnalyzeAcyclicAlgorithms(t *testing.T) {
	cases := []struct {
		name string
		alg  routing.Algorithm
	}{
		{"dor-mesh", routing.DimensionOrder(topology.NewMesh([]int{3, 3}, 1))},
		{"negfirst-mesh", routing.NegativeFirst(topology.NewMesh([]int{3, 3}, 1))},
		{"ecube", routing.ECube(topology.NewHypercube(3))},
		{"dallyseitz", routing.DallySeitzTorus(topology.NewTorus([]int{4, 4}, 2))},
	}
	for _, tc := range cases {
		rep := Analyze(tc.alg, Options{})
		if rep.Verdict != DeadlockFree {
			t.Fatalf("%s: verdict = %v; want deadlock-free", tc.name, rep.Verdict)
		}
		if !rep.Acyclic || rep.Numbering == nil {
			t.Fatalf("%s: expected acyclicity certificate", tc.name)
		}
		if !strings.Contains(rep.Reason, "acyclic") {
			t.Fatalf("%s: reason = %q", tc.name, rep.Reason)
		}
	}
}

func TestAnalyzeRingShortestDeadlockCapable(t *testing.T) {
	// Shortest-path routing on a unidirectional ring: the canonical
	// deadlock-prone algorithm. It is input-channel independent, so the
	// Corollary 1 screen fires.
	rep := Analyze(routing.ShortestBFS(topology.NewRing(4, false)), Options{})
	if rep.Verdict != DeadlockCapable {
		t.Fatalf("verdict = %v; want deadlock-capable", rep.Verdict)
	}
	if rep.Screen == "" {
		t.Fatal("expected a corollary screen for N x N -> C routing")
	}
	if rep.Acyclic {
		t.Fatal("ring CDG must be cyclic")
	}
}

// The paper's headline result, fully automatic: the Cyclic Dependency
// algorithm has a cyclic CDG, is not screened by any corollary, its unique
// cycle decomposes into exactly the four-message configuration, and the
// Section 5 timing analysis proves the configuration unreachable — so the
// algorithm is deadlock-free.
func TestAnalyzeFigure1DeadlockFreeDespiteCycle(t *testing.T) {
	pn := papernets.Figure1()
	rep := Analyze(pn.Alg, Options{})
	if rep.Acyclic {
		t.Fatal("figure 1 CDG must be cyclic")
	}
	if rep.Screen != "" {
		t.Fatalf("no corollary should screen figure 1 (got %q)", rep.Screen)
	}
	if rep.Verdict != DeadlockFree {
		t.Fatalf("verdict = %v (%s); Theorem 1 says deadlock-free", rep.Verdict, rep.Reason)
	}
	if len(rep.Cycles) != 1 {
		t.Fatalf("cycles = %d; want 1", len(rep.Cycles))
	}
	cyc := rep.Cycles[0]
	if cyc.Verdict != ConfigUnreachable {
		t.Fatalf("cycle verdict = %v", cyc.Verdict)
	}
	if len(cyc.Configs) != 1 {
		t.Fatalf("configurations = %d; want the unique four-message tiling", len(cyc.Configs))
	}
	cfg := cyc.Config(0).Config
	if cfg.Len() != 4 {
		t.Fatalf("members = %d; want 4", cfg.Len())
	}
	// Members are exactly the four Src -> D_i messages.
	for j := range cfg.Len() {
		if m := cfg.Member(j); m.Src != pn.Src {
			t.Fatalf("member source = %d; want Src", m.Src)
		}
	}
}

func TestAnalyzeGenK(t *testing.T) {
	for k := 1; k <= 3; k++ {
		rep := Analyze(papernets.GenK(k).Alg, Options{})
		if rep.Verdict != DeadlockFree {
			t.Fatalf("gen%d: verdict = %v", k, rep.Verdict)
		}
	}
}

func TestAnalyzeFigure2DeadlockCapable(t *testing.T) {
	rep := Analyze(papernets.Figure2().Alg, Options{})
	if rep.Verdict != DeadlockCapable {
		t.Fatalf("verdict = %v; Theorem 4 says deadlock-capable", rep.Verdict)
	}
	// A witness schedule is attached to some reachable configuration.
	found := false
	for _, cyc := range rep.Cycles {
		for j := range cyc.Configs {
			if cfg := cyc.Config(j); cfg.Verdict == ConfigReachable && cfg.Witness != nil {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no witness schedule attached")
	}
}

// Figure 3: the analyzer's static verdicts match the model checker's
// ground truth for all six configurations.
func TestAnalyzeFigure3MatchesModelChecker(t *testing.T) {
	want := map[byte]Freedom{
		'a': DeadlockFree, 'b': DeadlockFree,
		'c': DeadlockCapable, 'd': DeadlockCapable, 'e': DeadlockCapable, 'f': DeadlockCapable,
	}
	for letter := byte('a'); letter <= 'f'; letter++ {
		pn := papernets.Figure3(letter)
		rep := Analyze(pn.Alg, Options{})
		if rep.Verdict != want[letter] {
			t.Fatalf("figure 3(%c): verdict = %v (%s); want %v", letter, rep.Verdict, rep.Reason, want[letter])
		}
	}
}

// Options.Search cross-checks each configuration with the model checker on
// its single-instance scenario. Soundness: every configuration the
// analyzer calls unreachable has a no-deadlock search result. The pinned
// outcomes show that the converse does not hold: (c), (d) and (e) are
// reachable only with skew or interposed copies, which the single-instance
// scenario does not have, so their searches find no deadlock.
func TestAnalyzeSearchCrossCheck(t *testing.T) {
	type outcome struct {
		config ConfigVerdict
		search mcheck.Verdict
	}
	unreachableFree := outcome{ConfigUnreachable, mcheck.VerdictNoDeadlock}
	reachableFree := outcome{ConfigReachable, mcheck.VerdictNoDeadlock}
	reachableDeadlock := outcome{ConfigReachable, mcheck.VerdictDeadlock}
	cases := []struct {
		pn   *papernets.Net
		want outcome
	}{
		{papernets.Figure1(), unreachableFree},
		{papernets.Figure2(), reachableDeadlock},
		{papernets.Figure3('a'), unreachableFree},
		{papernets.Figure3('b'), unreachableFree},
		{papernets.Figure3('c'), reachableFree},
		{papernets.Figure3('d'), reachableFree},
		{papernets.Figure3('e'), reachableFree},
		{papernets.Figure3('f'), reachableDeadlock},
	}
	for _, tc := range cases {
		rep := Analyze(tc.pn.Alg, Options{Search: &mcheck.SearchOptions{}})
		var got []outcome
		for _, cyc := range rep.Cycles {
			for j := range cyc.Configs {
				cr := cyc.Config(j)
				if cr.SearchResult == nil {
					t.Fatalf("%s: configuration without a search result", tc.pn.Scenario.Name)
				}
				o := outcome{cr.Verdict, cr.SearchResult.Verdict}
				if o.config == ConfigUnreachable && o.search != mcheck.VerdictNoDeadlock {
					t.Errorf("%s: unreachable configuration, but the search finds %v", tc.pn.Scenario.Name, o.search)
				}
				got = append(got, o)
			}
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: outcomes %v; want [%v]", tc.pn.Scenario.Name, got, tc.want)
		}
	}
}

// Cross-validation: across the three-sharer family, the static analyzer
// and the exhaustive model checker (with interposed copies) agree.
func TestAnalyzeMatchesSearchOnThreeSharerFamily(t *testing.T) {
	ds := [][3]int{{4, 2, 3}, {5, 2, 3}, {6, 2, 3}, {4, 3, 2}}
	cs := [][3]int{{4, 4, 4}, {3, 4, 2}}
	for _, D := range ds {
		for _, C := range cs {
			pn := papernets.ThreeSharer("fam", papernets.ThreeSharerParams{D: D, C: C})
			rep := Analyze(pn.Alg, Options{})
			res := mcheck.Search(pn.Scenario, mcheck.SearchOptions{MaxStates: 10_000_000})
			gotCapable := rep.Verdict == DeadlockCapable
			truthCapable := res.Verdict == mcheck.VerdictDeadlock
			if !truthCapable {
				// Allow for interposed-copy deadlocks, which the static
				// analyzer accounts for via Theorem 5.
				for pos := range pn.Scenario.Msgs {
					sc := pn.Scenario
					sc.Msgs = append(append(sc.Msgs[:0:0], pn.Scenario.Msgs...), pn.Scenario.Msgs[pos])
					if r := mcheck.Search(sc, mcheck.SearchOptions{MaxStates: 10_000_000}); r.Verdict == mcheck.VerdictDeadlock {
						truthCapable = true
						break
					}
				}
			}
			if gotCapable != truthCapable {
				t.Fatalf("D%v C%v: analyzer capable=%v, checker capable=%v (%s)", D, C, gotCapable, truthCapable, rep.Reason)
			}
		}
	}
}

// TestDecomposeRingCycle decomposes the unidirectional 4-ring's single
// cycle under shortest routing and checks every tiling against Definition
// 6. Approaches are empty and a k-hop message can hold any arc shorter than
// k, so arcs have length 1 (the 2- and 3-hop message from the arc's node)
// or 2 (the 3-hop message only): four 1-arcs give 2^4 tilings, one 2-arc
// and two 1-arcs 4·2^2, two 2-arcs 2 — 34 in all, each exactly once.
func TestDecomposeRingCycle(t *testing.T) {
	alg := routing.ShortestBFS(topology.NewRing(4, false))
	cycles, _ := cdg.New(alg).Cycles(0)
	if len(cycles) != 1 || len(cycles[0]) != 4 {
		t.Fatalf("cycles = %v; want one 4-channel cycle", cycles)
	}
	cyc := cycles[0]
	configs, truncated := decomposeCycle(alg, cyc, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if len(configs) != 34 {
		t.Fatalf("tilings = %d; want 34", len(configs))
	}
	type arc struct {
		src, dst topology.NodeID
		start    topology.ChannelID
		length   int
	}
	tilings := map[string]bool{}
	for ci, cfg := range configs {
		// The arcs tile the cycle in ring order.
		var tiled []topology.ChannelID
		for j := range cfg.Len() {
			tiled = append(tiled, cfg.Member(j).Arc...)
		}
		start := -1
		for i, c := range cyc {
			if c == tiled[0] {
				start = i
			}
		}
		if len(tiled) != len(cyc) || start < 0 {
			t.Fatalf("config %d: arcs %v do not tile cycle %v", ci, tiled, cyc)
		}
		for i, c := range tiled {
			if c != cyc[(start+i)%len(cyc)] {
				t.Fatalf("config %d: arcs %v are not cycle %v in ring order", ci, tiled, cyc)
			}
		}
		// The (src, dst) pairs are distinct, and each member's path is
		// Approach ++ Arc followed by the next member's first arc channel.
		pairs := map[[2]topology.NodeID]bool{}
		var key []arc
		for i := range cfg.Len() {
			m := cfg.Member(i)
			p := [2]topology.NodeID{m.Src, m.Dst}
			if pairs[p] {
				t.Fatalf("config %d: pair %v repeats", ci, p)
			}
			pairs[p] = true
			next := cfg.Member((i + 1) % cfg.Len()).Arc[0]
			want := append(append(append([]topology.ChannelID(nil), m.Approach...), m.Arc...), next)
			path := alg.Path(m.Src, m.Dst)
			if len(path) < len(want) || !slices.Equal(path[:len(want)], want) {
				t.Fatalf("config %d member %d: path %v does not start with approach %v, arc %v, then %d",
					ci, i, path, m.Approach, m.Arc, next)
			}
			key = append(key, arc{m.Src, m.Dst, m.Arc[0], len(m.Arc)})
		}
		// No tiling is reported twice, in any rotation.
		sort.Slice(key, func(i, j int) bool { return key[i].start < key[j].start })
		if k := fmt.Sprint(key); tilings[k] {
			t.Fatalf("config %d repeats tiling %s", ci, k)
		} else {
			tilings[k] = true
		}
	}
}

func TestDecomposeFindsUniqueFigure1Tiling(t *testing.T) {
	pn := papernets.Figure1()
	g := cdg.New(pn.Alg)
	cycles, _ := g.Cycles(0)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d", len(cycles))
	}
	configs, truncated := decomposeCycle(pn.Alg, cycles[0], 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if len(configs) != 1 {
		t.Fatalf("tilings = %d; want 1", len(configs))
	}
	// Arc lengths must be the paper's 3, 4, 3, 4 in ring order.
	lens := map[int]int{}
	for j := range configs[0].Len() {
		lens[len(configs[0].Member(j).Arc)]++
	}
	if lens[3] != 2 || lens[4] != 2 {
		t.Fatalf("arc lengths = %v; want two of 3 and two of 4", lens)
	}
}

func TestFreedomAndConfigVerdictStrings(t *testing.T) {
	if DeadlockFree.String() != "deadlock-free" || DeadlockCapable.String() != "deadlock-capable" || Unknown.String() != "unknown" {
		t.Fatal("Freedom strings wrong")
	}
	if ConfigUnreachable.String() != "unreachable" || ConfigReachable.String() != "reachable" || ConfigUnknown.String() != "unknown" {
		t.Fatal("ConfigVerdict strings wrong")
	}
}

func TestAnalyzeHubRouting(t *testing.T) {
	// Hub routing on a star: every path is at most two hops through the
	// hub; the CDG is acyclic.
	rep := Analyze(routing.Hub(topology.NewStar(5), 0), Options{})
	if rep.Verdict != DeadlockFree || !rep.Acyclic {
		t.Fatalf("star hub routing: %v (acyclic=%v)", rep.Verdict, rep.Acyclic)
	}
}
