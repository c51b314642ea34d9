package mcheck

import (
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
	e := &decisionEnum{picks: make(map[topology.ChannelID]int)}
	seen := make(map[string]bool)
	n := 0
	e.pickLoop(cons, nil, func(d *Decision) bool {
		n++
		key := ""
		for ch := topology.ChannelID(1); ch <= 2; ch++ {
			key += string(rune('0' + d.Picks[ch]))
		}
		seen[key] = true
		return true
	})
	if n != 6 {
		t.Fatalf("combos = %d; want 6", n)
	}
	if len(seen) != 6 {
		t.Fatalf("combos not distinct: %v", seen)
	}
	// The first contested channel varies fastest (canonical order).
	first := ""
	e.pickLoop(cons, nil, func(d *Decision) bool {
		first = string(rune('0'+d.Picks[1])) + string(rune('0'+d.Picks[2]))
		return false
	})
	if first != "02" {
		t.Fatalf("first combo = %q; want picks {1:0, 2:2}", first)
	}
	// With no contentions, a single decision with nil picks.
	n = 0
	e.pickLoop(nil, nil, func(d *Decision) bool {
		n++
		if d.Picks != nil {
			t.Fatalf("empty contentions yielded picks %v", d.Picks)
		}
		return true
	})
	if n != 1 {
		t.Fatalf("empty contentions yielded %d decisions; want 1", n)
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
