package mcheck

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/waitfor"
)

// ringScenario: the canonical 4-node unidirectional ring with four two-hop
// messages — deadlock reachable under simultaneous injection.
func ringScenario(length int) sim.Scenario {
	net := topology.NewRing(4, false)
	sc := sim.Scenario{Name: "ring4", Net: net}
	for i := 0; i < 4; i++ {
		sc.Msgs = append(sc.Msgs, sim.MessageSpec{
			Src: topology.NodeID(i), Dst: topology.NodeID((i + 2) % 4),
			Length: length,
			Path:   []topology.ChannelID{topology.ChannelID(i), topology.ChannelID((i + 1) % 4)},
		})
	}
	return sc
}

// safeScenario: two messages on disjoint paths of a bidirectional ring —
// no interaction, no deadlock possible.
func safeScenario() sim.Scenario {
	net := topology.NewRing(4, true)
	cw01 := net.ChannelsBetween(0, 1)[0]
	cw23 := net.ChannelsBetween(2, 3)[0]
	return sim.Scenario{
		Name: "safe",
		Net:  net,
		Msgs: []sim.MessageSpec{
			{Src: 0, Dst: 1, Length: 2, Path: []topology.ChannelID{cw01}},
			{Src: 2, Dst: 3, Length: 2, Path: []topology.ChannelID{cw23}},
		},
	}
}

func TestSearchFindsRingDeadlock(t *testing.T) {
	res := Search(ringScenario(2), SearchOptions{})
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict = %v; want deadlock", res.Verdict)
	}
	if res.Deadlock == nil || len(res.Deadlock.Cycle) != 4 {
		t.Fatalf("deadlock = %v", res.Deadlock)
	}
	// The witness trace must replay to a state containing the same
	// deadlock configuration.
	s := Replay(ringScenario(2), res.Trace)
	if err := waitfor.Verify(s, res.Deadlock); err != nil {
		t.Fatalf("replayed witness invalid: %v", err)
	}
}

func TestSearchSafeScenarioNoDeadlock(t *testing.T) {
	res := Search(safeScenario(), SearchOptions{})
	if res.Verdict != VerdictNoDeadlock {
		t.Fatalf("verdict = %v; want no-deadlock", res.Verdict)
	}
	if res.States < 2 {
		t.Fatalf("states = %d; search did not explore", res.States)
	}
}

func TestSearchSafeScenarioWithStallBudget(t *testing.T) {
	// Stalls cannot create a deadlock when paths never share channels.
	res := Search(safeScenario(), SearchOptions{StallBudget: 3})
	if res.Verdict != VerdictNoDeadlock {
		t.Fatalf("verdict = %v; want no-deadlock", res.Verdict)
	}
}

// TestSearchRejectsNegativeStallBudget: a negative budget is a caller
// error named up front, not a corrupt frontier entry mid-search.
func TestSearchRejectsNegativeStallBudget(t *testing.T) {
	for name, engine := range map[string]func(sim.Scenario, SearchOptions) SearchResult{
		"search": Search, "liveness": SearchLiveness,
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if got, want := recover(), "mcheck: negative StallBudget -1"; got != want {
					t.Fatalf("panic %v, want %q", got, want)
				}
			}()
			engine(ringScenario(2), SearchOptions{StallBudget: -1})
		})
	}
}

func TestSearchExhaustion(t *testing.T) {
	res := Search(ringScenario(2), SearchOptions{MaxStates: 2})
	if res.Verdict != VerdictExhausted {
		t.Fatalf("verdict = %v; want exhausted", res.Verdict)
	}
}

func TestSearchSingleFlitRing(t *testing.T) {
	// Single-flit messages still deadlock on the ring.
	res := Search(ringScenario(1), SearchOptions{})
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestSearchHonorsPartialInjection(t *testing.T) {
	// Only three of the four ring messages: a 3-member cycle cannot close
	// on a 4-ring (message i+1's first channel is message i's second, so
	// with one message absent some message's second channel stays free —
	// its owner drains and the rest follow).
	sc := ringScenario(2)
	sc.Msgs = sc.Msgs[:3]
	res := Search(sc, SearchOptions{})
	if res.Verdict != VerdictNoDeadlock {
		t.Fatalf("verdict = %v; want no-deadlock with three messages", res.Verdict)
	}
}

func TestSubsetEnumeration(t *testing.T) {
	// Ascending bitmask order: {}, {1}, {2}, {1,2}.
	var got [][]int
	ids := []int{1, 2}
	for mask := 0; mask < 1<<len(ids); mask++ {
		got = append(got, subsetInto(nil, ids, mask))
	}
	if len(got) != 4 {
		t.Fatalf("subsets = %v", got)
	}
	if len(got[0]) != 0 {
		t.Fatal("first subset should be empty")
	}
	if len(got[1]) != 1 || got[1][0] != 1 {
		t.Fatalf("second subset = %v; want [1]", got[1])
	}
	if len(got[3]) != 2 {
		t.Fatalf("last subset = %v; want [1 2]", got[3])
	}
}

func TestPickEnumeration(t *testing.T) {
	cons := []sim.Contention{
		{Channel: 1, Contenders: []int{0, 1}},
		{Channel: 2, Contenders: []int{2, 3, 4}},
	}
	e := &decisionEnum{}
	seen := make(map[string]bool)
	n := 0
	e.pickLoop(cons, nil, func(d *Decision) bool {
		n++
		if len(d.Picks) != 2 || d.Picks[0].Channel != 1 || d.Picks[1].Channel != 2 {
			t.Fatalf("picks %v; want one per contention, in contention order", d.Picks)
		}
		seen[fmt.Sprint(d.Picks[0].Msg, d.Picks[1].Msg)] = true
		return true
	})
	if n != 6 {
		t.Fatalf("combos = %d; want 6", n)
	}
	if len(seen) != 6 {
		t.Fatalf("combos not distinct: %v", seen)
	}
	// The first contested channel varies fastest (canonical order).
	var second []sim.Pick
	e.pickLoop(cons, nil, func(d *Decision) bool {
		if e.pick == 1 {
			second = slices.Clone(d.Picks)
			return false
		}
		return true
	})
	if want := []sim.Pick{{Channel: 1, Msg: 1}, {Channel: 2, Msg: 2}}; !slices.Equal(second, want) {
		t.Fatalf("second combo = %v; want %v", second, want)
	}
	// With no contentions, a single decision without picks.
	n = 0
	e.pickLoop(nil, nil, func(d *Decision) bool {
		n++
		if len(d.Picks) != 0 {
			t.Fatalf("empty contentions yielded picks %v", d.Picks)
		}
		return true
	})
	if n != 1 {
		t.Fatalf("empty contentions yielded %d decisions; want 1", n)
	}
}

// TestDecisionPicksAscending: in a state where two channels are contested
// in one cycle, every decision's picks list the contested channels in
// strictly ascending order, one contender each, and the enumerator and
// sim.Contentions agree on that order. Messages are added so that the
// higher channel's contenders have the lower IDs.
func TestDecisionPicksAscending(t *testing.T) {
	net := topology.NewRing(4, false)
	sc := sim.Scenario{Name: "two-contests", Net: net}
	for _, entry := range []topology.ChannelID{2, 2, 0, 0} {
		sc.Msgs = append(sc.Msgs, sim.MessageSpec{
			Src: topology.NodeID(entry), Dst: topology.NodeID(entry + 1), Length: 1,
			Path: []topology.ChannelID{entry},
		})
	}
	root := newHeldSim(sc)
	e := newDecisionEnum(root)
	var two [][]sim.Pick
	e.forEach(root, 0, enumConfig{}, nil, func(d *Decision) bool {
		for i := 1; i < len(d.Picks); i++ {
			if d.Picks[i].Channel <= d.Picks[i-1].Channel {
				t.Fatalf("decision %+v: picks not ascending by channel", *d)
			}
		}
		if len(d.Picks) == 2 {
			two = append(two, slices.Clone(d.Picks))
		}
		return true
	})
	want := [][]sim.Pick{
		{{Channel: 0, Msg: 2}, {Channel: 2, Msg: 0}},
		{{Channel: 0, Msg: 3}, {Channel: 2, Msg: 0}},
		{{Channel: 0, Msg: 2}, {Channel: 2, Msg: 1}},
		{{Channel: 0, Msg: 3}, {Channel: 2, Msg: 1}},
	}
	if !slices.EqualFunc(two, want, slices.Equal) {
		t.Fatalf("two-contest decisions %v; want %v", two, want)
	}
	copied := copyDecision(&Decision{Picks: two[0], Freeze: []int{}})
	if !slices.Equal(copied.Picks, two[0]) || copied.Masks != nil || copied.Freeze != nil {
		t.Fatalf("copyDecision = %+v", copied)
	}
	// Witnesses print each list as a map in key order, as they always have.
	copied.Masks = Masks{{Msg: 1, Channel: 3}}
	if got, want := fmt.Sprintf("%+v", copied), "{Activate:[] Freeze:[] Masks:map[1:3] Picks:map[0:2 2:0]}"; got != want {
		t.Fatalf("decision prints as %s; want %s", got, want)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictNoDeadlock.String() != "no-deadlock" ||
		VerdictDeadlock.String() != "deadlock" ||
		VerdictExhausted.String() != "exhausted" {
		t.Fatal("verdict strings wrong")
	}
	if Verdict(9).String() == "" {
		t.Fatal("unknown verdict should render")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	s := Replay(safeScenario(), nil)
	if s.NumMessages() != 2 {
		t.Fatal("replay should instantiate the scenario")
	}
	// All messages held at the root state.
	if !s.Held(0) || !s.Held(1) {
		t.Fatal("root state should hold every message")
	}
}
