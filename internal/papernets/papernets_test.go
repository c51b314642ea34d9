package papernets

import (
	"testing"

	"repro/internal/cdg"
	"repro/internal/mcheck"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/unreachable"
	"repro/internal/waitfor"
)

func TestFigure1Structure(t *testing.T) {
	pn := Figure1()
	if err := pn.Network.Validate(); err != nil {
		t.Fatalf("network invalid: %v", err)
	}
	if len(pn.Entrants) != 4 {
		t.Fatalf("entrants = %d", len(pn.Entrants))
	}
	// Paper parameters: d1=d3=2, d2=d4=3; c1=c3=3, c2=c4=4.
	wantD := []int{2, 3, 2, 3}
	wantC := []int{3, 4, 3, 4}
	for i, e := range pn.Entrants {
		if e.D != wantD[i] || e.C != wantC[i] {
			t.Fatalf("entrant %d: d=%d c=%d; want d=%d c=%d", i, e.D, e.C, wantD[i], wantC[i])
		}
		if e.Source != pn.Src {
			t.Fatalf("entrant %d source = %d; want Src", i, e.Source)
		}
		if e.Path[0] != pn.Shared {
			t.Fatalf("entrant %d does not start with the shared channel", i)
		}
		if !pn.Network.IsPath(e.Source, e.Dest, e.Path) {
			t.Fatalf("entrant %d path is not contiguous", i)
		}
		if len(e.Approach) != e.D || len(e.Arc) != e.C {
			t.Fatalf("entrant %d: |approach|=%d |arc|=%d", i, len(e.Approach), len(e.Arc))
		}
	}
	// The ring is closed: each entrant's blocking channel is the next
	// entrant's first arc channel.
	for i, e := range pn.Entrants {
		next := pn.Entrants[(i+1)%4]
		if e.BlockedAt != next.Arc[0] {
			t.Fatalf("entrant %d blocked at %d; want %d", i, e.BlockedAt, next.Arc[0])
		}
	}
	// Ring length = sum of arcs = 14.
	if len(pn.Ring) != 14 {
		t.Fatalf("ring length = %d; want 14", len(pn.Ring))
	}
}

func TestFigure1RoutingProperties(t *testing.T) {
	pn := Figure1()
	props := routing.CheckAll(pn.Alg)
	if !props.Complete {
		t.Fatalf("routing incomplete: %v", props.Violations)
	}
	if !props.RoutingFuncForm {
		t.Fatal("the Cyclic Dependency algorithm must be realizable as R: CxN -> C")
	}
	// The paper's algorithm is deliberately nonminimal and not
	// suffix-closed (Corollary 2: suffix-closed algorithms cannot have
	// unreachable configurations).
	if props.Minimal {
		t.Fatal("the Cyclic Dependency algorithm must not be minimal")
	}
	if props.SuffixClosed {
		t.Fatal("the Cyclic Dependency algorithm must not be suffix-closed")
	}
	if props.Coherent {
		t.Fatal("the Cyclic Dependency algorithm must not be coherent")
	}
}

func TestFigure1CDGHasExactlyOneCycle(t *testing.T) {
	pn := Figure1()
	g := cdg.New(pn.Alg)
	if ok, _ := g.Acyclic(); ok {
		t.Fatal("the CDG must contain a cycle")
	}
	cycles, truncated := g.Cycles(0)
	if truncated || len(cycles) != 1 {
		t.Fatalf("cycles = %d (truncated %v); want exactly 1", len(cycles), truncated)
	}
	if len(cycles[0]) != len(pn.Ring) {
		t.Fatalf("cycle length = %d; want %d", len(cycles[0]), len(pn.Ring))
	}
	for _, c := range pn.Ring {
		if !cycles[0].Contains(c) {
			t.Fatalf("ring channel %d missing from the CDG cycle", c)
		}
	}
}

// Theorem 1: the Cyclic Dependency routing algorithm is deadlock-free. The
// state-space search is exhaustive over all injection timings and
// arbitration outcomes.
func TestTheorem1Figure1DeadlockFree(t *testing.T) {
	res := mcheck.Search(Figure1().Scenario, mcheck.SearchOptions{})
	if res.Verdict != mcheck.VerdictNoDeadlock {
		t.Fatalf("verdict = %v; Theorem 1 says no deadlock", res.Verdict)
	}
	if res.States < 1000 {
		t.Fatalf("suspiciously small exploration: %d states", res.States)
	}
}

// Section 6's observation about Figure 1: the cycle becomes a reachable
// deadlock as soon as a router may delay one in-transit message a single
// cycle while its output channel is free.
func TestFigure1DeadlockWithOneStall(t *testing.T) {
	pn := Figure1()
	res := mcheck.Search(pn.Scenario, mcheck.SearchOptions{StallBudget: 1, FreezeInTransitOnly: true})
	if res.Verdict != mcheck.VerdictDeadlock {
		t.Fatalf("verdict = %v; want deadlock with 1 stall cycle", res.Verdict)
	}
	s := mcheck.Replay(pn.Scenario, res.Trace)
	if err := waitfor.Verify(s, res.Deadlock); err != nil {
		t.Fatalf("witness does not replay: %v", err)
	}
}

// Theorem 1 is robust to richer message populations: extra copies of the
// short messages do not enable a deadlock.
func TestTheorem1WithExtraCopies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-copy search is expensive")
	}
	pn := Figure1()
	sc := pn.Scenario
	sc.Msgs = append(append([]sim.MessageSpec(nil), sc.Msgs...), sc.Msgs[0], sc.Msgs[2])
	res := mcheck.Search(sc, mcheck.SearchOptions{MaxStates: 30_000_000})
	if res.Verdict != mcheck.VerdictNoDeadlock {
		t.Fatalf("verdict = %v; Theorem 1 with extra copies", res.Verdict)
	}
}

// Section 6: Gen(k) tolerates k-1 cycles of router delay and deadlocks at
// exactly k.
func TestGenKMinimalStall(t *testing.T) {
	maxK := 3
	if testing.Short() {
		maxK = 2
	}
	for k := 1; k <= maxK; k++ {
		pn := GenK(k)
		below := mcheck.Search(pn.Scenario, mcheck.SearchOptions{StallBudget: k - 1, FreezeInTransitOnly: true})
		if below.Verdict != mcheck.VerdictNoDeadlock {
			t.Fatalf("gen%d with budget %d: %v; want no deadlock", k, k-1, below.Verdict)
		}
		at := mcheck.Search(pn.Scenario, mcheck.SearchOptions{StallBudget: k, FreezeInTransitOnly: true})
		if at.Verdict != mcheck.VerdictDeadlock {
			t.Fatalf("gen%d with budget %d: %v; want deadlock", k, k, at.Verdict)
		}
		// The witness delays a single message exactly k cycles.
		frozen := map[int]int{}
		for _, d := range at.Trace {
			for _, id := range d.Freeze {
				frozen[id]++
			}
		}
		total := 0
		for _, n := range frozen {
			total += n
		}
		if total != k || len(frozen) != 1 {
			t.Fatalf("gen%d witness freeze profile = %v; want one message frozen %d cycles", k, frozen, k)
		}
	}
	if testing.Short() {
		return
	}
	// The tolerance saturates: Gen(6) needs 5 stall cycles, not 6, split
	// across the two long-approach messages M2 and M4.
	pn := GenK(6)
	below := mcheck.Search(pn.Scenario, mcheck.SearchOptions{StallBudget: 4, FreezeInTransitOnly: true})
	if below.Verdict != mcheck.VerdictNoDeadlock || below.States != 31061 {
		t.Fatalf("gen6 with budget 4: %v over %d states; want no deadlock over 31061", below.Verdict, below.States)
	}
	at := mcheck.Search(pn.Scenario, mcheck.SearchOptions{StallBudget: 5, FreezeInTransitOnly: true})
	if at.Verdict != mcheck.VerdictDeadlock || at.States != 33277 {
		t.Fatalf("gen6 with budget 5: %v over %d states; want deadlock over 33277", at.Verdict, at.States)
	}
	frozen := map[int]int{}
	for _, d := range at.Trace {
		for _, id := range d.Freeze {
			frozen[id]++
		}
	}
	if len(frozen) != 2 || frozen[1] != 3 || frozen[3] != 2 {
		t.Fatalf("gen6 witness freeze profile = %v; want M2 (id 1) frozen 3 cycles and M4 (id 3) 2", frozen)
	}
}

func TestGenKRejectsBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenK(0)
}

// Theorem 4: a channel shared by exactly two messages outside the cycle
// always yields a reachable deadlock — including the equal-distance case,
// which exercises the same-cycle channel handoff.
func TestTheorem4Figure2(t *testing.T) {
	res := mcheck.Search(Figure2().Scenario, mcheck.SearchOptions{})
	if res.Verdict != mcheck.VerdictDeadlock {
		t.Fatalf("figure 2 verdict = %v; Theorem 4 says deadlock", res.Verdict)
	}
	eq := Build("fig2-equal", []Entrant{
		{Shared: true, D: 3, C: 4, Label: "M1"},
		{Shared: true, D: 3, C: 4, Label: "M2"},
	})
	res = mcheck.Search(eq.Scenario, mcheck.SearchOptions{})
	if res.Verdict != mcheck.VerdictDeadlock {
		t.Fatalf("equal-distance two-sharer verdict = %v; want deadlock", res.Verdict)
	}
}

// Theorem 4 across a parameter grid: every two-sharer configuration is
// deadlock-reachable, and the analytic classifier agrees with the search.
func TestTheorem4Family(t *testing.T) {
	for d1 := 2; d1 <= 4; d1++ {
		for d2 := 2; d2 <= 4; d2++ {
			for _, c1 := range []int{2, 4} {
				for _, c2 := range []int{3} {
					pn := Build("two", []Entrant{
						{Shared: true, D: d1, C: c1},
						{Shared: true, D: d2, C: c2},
					})
					v, w := unreachable.Classify(pn.Configuration())
					if v != unreachable.DeadlockReachable || w == nil {
						t.Fatalf("d=(%d,%d) c=(%d,%d): classify = %v", d1, d2, c1, c2, v)
					}
					res := mcheck.Search(pn.Scenario, mcheck.SearchOptions{})
					if res.Verdict != mcheck.VerdictDeadlock {
						t.Fatalf("d=(%d,%d) c=(%d,%d): search = %v", d1, d2, c1, c2, res.Verdict)
					}
				}
			}
		}
	}
}

// groundTruth decides reachability allowing the adversary one extra copy
// of each single message (assumption 1 lets sources repeat messages; the
// paper's conditions 4-6 rely on such interposed copies).
func groundTruth(t *testing.T, sc sim.Scenario) mcheck.Verdict {
	t.Helper()
	res := mcheck.Search(sc, mcheck.SearchOptions{MaxStates: 20_000_000})
	if res.Verdict == mcheck.VerdictDeadlock {
		return mcheck.VerdictDeadlock
	}
	if res.Verdict == mcheck.VerdictExhausted {
		t.Fatal("search exhausted")
	}
	for pos := range sc.Msgs {
		out := sc
		out.Msgs = append(append([]sim.MessageSpec(nil), sc.Msgs...), sc.Msgs[pos])
		r := mcheck.Search(out, mcheck.SearchOptions{MaxStates: 20_000_000})
		if r.Verdict == mcheck.VerdictDeadlock {
			return mcheck.VerdictDeadlock
		}
		if r.Verdict == mcheck.VerdictExhausted {
			t.Fatal("search exhausted")
		}
	}
	return mcheck.VerdictNoDeadlock
}

// Theorem 5 / Figure 3: (a) and (b) are false resource cycles; (c)-(f)
// deadlock. The Theorem 5 condition evaluator agrees on the pure
// three-sharer instances.
func TestFigure3Classifications(t *testing.T) {
	want := map[byte]mcheck.Verdict{
		'a': mcheck.VerdictNoDeadlock,
		'b': mcheck.VerdictNoDeadlock,
		'c': mcheck.VerdictDeadlock,
		'd': mcheck.VerdictDeadlock,
		'e': mcheck.VerdictDeadlock,
		'f': mcheck.VerdictDeadlock,
	}
	for letter := byte('a'); letter <= 'f'; letter++ {
		pn := Figure3(letter)
		got := groundTruth(t, pn.Scenario)
		if got != want[letter] {
			t.Fatalf("figure 3(%c): ground truth = %v; want %v", letter, got, want[letter])
		}
		rep := unreachable.Theorem5(pn.Configuration())
		if letter == 'f' {
			if rep.Applicable {
				t.Fatal("figure 3(f) has a non-sharing member; Theorem 5 should not apply")
			}
			continue
		}
		if !rep.Applicable {
			t.Fatalf("figure 3(%c): Theorem 5 should apply", letter)
		}
		if rep.Unreachable != (want[letter] == mcheck.VerdictNoDeadlock) {
			t.Fatalf("figure 3(%c): Theorem 5 says unreachable=%v; ground truth %v", letter, rep.Unreachable, want[letter])
		}
	}
}

func TestFigure3RejectsBadLetter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Figure3('z')
}

// Theorem 5's iff, mechanically: across a parameter family the condition
// evaluator exactly matches exhaustive model checking with interposed
// copies.
func TestTheorem5MatchesGroundTruthOnFamily(t *testing.T) {
	ds := [][3]int{{4, 2, 3}, {5, 2, 3}, {6, 2, 3}, {5, 3, 4}, {4, 3, 2}, {3, 3, 2}}
	cs := [][3]int{{2, 2, 2}, {4, 4, 4}, {5, 2, 4}, {3, 4, 2}}
	if testing.Short() {
		ds = ds[:3]
		cs = cs[:2]
	}
	for _, D := range ds {
		for _, C := range cs {
			pn := ThreeSharer("fam", ThreeSharerParams{D: D, C: C})
			rep := unreachable.Theorem5(pn.Configuration())
			if !rep.Applicable {
				t.Fatalf("D%v C%v: not applicable", D, C)
			}
			got := groundTruth(t, pn.Scenario)
			wantUnreachable := got == mcheck.VerdictNoDeadlock
			if rep.Unreachable != wantUnreachable {
				t.Fatalf("D%v C%v: Theorem 5 unreachable=%v, ground truth %v (conditions %+v)",
					D, C, rep.Unreachable, got, rep.Conditions)
			}
		}
	}
}

// The single-instance analytic classifier matches the single-instance
// search across mixed shared/private configurations.
func TestClassifyMatchesSearchSingleInstance(t *testing.T) {
	cases := [][]Entrant{
		{{Shared: true, D: 3, C: 4}, {Shared: true, D: 2, C: 3}, {Shared: false, D: 2, C: 3}},
		{{Shared: true, D: 4, C: 3}, {Shared: false, D: 1, C: 2}, {Shared: true, D: 2, C: 5}},
		{{Shared: false, D: 2, C: 3}, {Shared: false, D: 1, C: 2}},
		{{Shared: true, D: 2, C: 3}, {Shared: true, D: 3, C: 4}, {Shared: true, D: 2, C: 3}, {Shared: true, D: 3, C: 4}},
	}
	for i, ents := range cases {
		pn := Build("mix", ents)
		v, _ := unreachable.Classify(pn.Configuration())
		res := mcheck.Search(pn.Scenario, mcheck.SearchOptions{MaxStates: 10_000_000})
		wantReachable := res.Verdict == mcheck.VerdictDeadlock
		if (v == unreachable.DeadlockReachable) != wantReachable {
			t.Fatalf("case %d: classify = %v, search = %v", i, v, res.Verdict)
		}
	}
}

func TestScenarioUsesMinimalLengths(t *testing.T) {
	pn := Figure1()
	for i, m := range pn.Scenario.Msgs {
		if m.Length != pn.Entrants[i].C {
			t.Fatalf("message %d length = %d; want %d", i, m.Length, pn.Entrants[i].C)
		}
	}
	if !pn.Scenario.Cfg.SameCycleHandoff {
		t.Fatal("paper scenarios use the aggressive handoff model")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := [][]Entrant{
		{{Shared: true, D: 2, C: 3}},                             // too few
		{{Shared: true, D: 0, C: 3}, {Shared: true, D: 2, C: 3}}, // D < 1
		{{Shared: true, D: 1, C: 3}, {Shared: true, D: 2, C: 3}}, // shared D < 2
		{{Shared: true, D: 2, C: 1}, {Shared: true, D: 2, C: 3}}, // C < 2
	}
	for i, ents := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			Build("bad", ents)
		}()
	}
}

func TestBuildPrivateOnly(t *testing.T) {
	// All-private configurations (Theorem 2 shape: no sharing at all)
	// build fine and are deadlock-reachable.
	pn := Build("priv", []Entrant{
		{Shared: false, D: 2, C: 3},
		{Shared: false, D: 1, C: 2},
	})
	if pn.Shared != -1 {
		t.Fatalf("shared channel = %d; want none (-1)", pn.Shared)
	}
	res := mcheck.Search(pn.Scenario, mcheck.SearchOptions{})
	if res.Verdict != mcheck.VerdictDeadlock {
		t.Fatalf("verdict = %v; Theorem 2 says reachable", res.Verdict)
	}
}

func TestFigure1IsGen1(t *testing.T) {
	f, g := Figure1(), GenK(1)
	if f.Network.NumNodes() != g.Network.NumNodes() || f.Network.NumChannels() != g.Network.NumChannels() {
		t.Fatal("Figure1 and GenK(1) should be the same construction")
	}
}
