package mcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/waitfor"
)

// TestLivenessLocalDeadlockTwoRings is the local-deadlock acceptance case:
// a network whose ring A deadlocks while ring B traffic stays deliverable
// must yield VerdictLocalDeadlock with exactly ring A's channels as the
// blocked subnetwork, and the witness must replay.
func TestLivenessLocalDeadlockTwoRings(t *testing.T) {
	sc := papernets.LocalRings()
	res := SearchLiveness(sc, SearchOptions{})
	if res.Verdict != VerdictLocalDeadlock {
		t.Fatalf("verdict = %v; want local-deadlock", res.Verdict)
	}
	if res.Local == nil {
		t.Fatal("no local-deadlock witness")
	}
	if got, want := fmt.Sprint(res.Local.Blocked), "[0 1 2 3]"; got != want {
		t.Fatalf("blocked subnetwork = %v; want exactly ring A %v", got, want)
	}
	foundB := false
	for _, id := range res.Local.Live {
		if id == 4 {
			foundB = true
		}
	}
	if !foundB {
		t.Fatalf("live set %v does not contain the ring B message", res.Local.Live)
	}
	s := Replay(sc, res.Trace)
	if err := waitfor.VerifyLocal(s, res.Local); err != nil {
		t.Fatalf("replayed witness: %v", err)
	}
}

// TestLivenessLivelockStaleSelection is the livelock acceptance case: the
// stale-selection scenario is deadlock-free under the plain engine but
// must yield a replayable lasso under the liveness engine, with the
// adaptive message and the oblivious message it blocks both starved.
func TestLivenessLivelockStaleSelection(t *testing.T) {
	sc := papernets.StaleSelection()
	plain := Search(sc, SearchOptions{})
	if plain.Verdict != VerdictNoDeadlock {
		t.Fatalf("plain verdict = %v; the scenario must be deadlock-free", plain.Verdict)
	}
	res := SearchLiveness(sc, SearchOptions{})
	if res.Verdict != VerdictLivelock {
		t.Fatalf("liveness verdict = %v; want livelock", res.Verdict)
	}
	if res.Lasso == nil {
		t.Fatal("no lasso witness")
	}
	if err := VerifyLasso(sc, res.Lasso); err != nil {
		t.Fatalf("lasso witness: %v", err)
	}
	starved := map[int]bool{}
	for _, id := range res.Lasso.Starved {
		starved[id] = true
	}
	if !starved[0] || !starved[1] {
		t.Fatalf("starved = %v; want both messages", res.Lasso.Starved)
	}
	// Replay the loop several times by hand: the encoding must be pinned
	// and no starved message's progress counter may ever change.
	head := ReplayLasso(sc, res.Lasso, 1)
	var want, got []byte
	head.EncodeTo(&want)
	p0, p1 := head.Progress(0), head.Progress(1)
	more := ReplayLasso(sc, res.Lasso, 4)
	more.EncodeTo(&got)
	if !bytes.Equal(want, got) {
		t.Fatal("loop iterations do not reproduce the loop head")
	}
	if more.Progress(0) != p0 || more.Progress(1) != p1 {
		t.Fatal("a starved message advanced across loop iterations")
	}
}

// reversedStaleSelection is StaleSelection with n1's route reversed to
// [c2, c1], so the candidate m1 owns comes before the free one in route
// order.
func reversedStaleSelection() sim.Scenario {
	sc := papernets.StaleSelection()
	sc.Name = "staleselection-reversed"
	route := sc.Msgs[0].Route
	sc.Msgs[0].Route = func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		r := slices.Clone(route(at, in, dst))
		slices.Reverse(r)
		return r
	}
	return sc
}

// TestLivenessLivelockReversedRoute: the order of an adaptive route's
// candidates must not change the verdict. With the owned c2 listed first,
// the stale selection is still a livelock, never a deadlock — m0 always
// has the free c1 — and its lasso must loop on one state and replay.
func TestLivenessLivelockReversedRoute(t *testing.T) {
	sc := reversedStaleSelection()
	for _, budget := range []int{0, 2} {
		res := SearchLiveness(sc, SearchOptions{StallBudget: budget, FreezeInTransitOnly: true})
		if res.Verdict != VerdictLivelock {
			t.Fatalf("stall %d: verdict = %v; want livelock", budget, res.Verdict)
		}
		if len(res.Lasso.Loop) != 1 {
			t.Fatalf("stall %d: lasso loop has %d decisions; every loop is a self-loop", budget, len(res.Lasso.Loop))
		}
		if err := VerifyLasso(sc, res.Lasso); err != nil {
			t.Fatalf("stall %d: lasso witness: %v", budget, err)
		}
	}
}

// TestLivenessPureRingIsGlobalDeadlock: when the cycle leaves nothing
// outside it deliverable, the verdict must stay the plain VerdictDeadlock
// — the deadlock is global, not local.
func TestLivenessPureRingIsGlobalDeadlock(t *testing.T) {
	sc := ringScenario(2)
	res := SearchLiveness(sc, SearchOptions{})
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict = %v; want deadlock", res.Verdict)
	}
	if res.Local != nil {
		t.Fatalf("unexpected local witness %v for a global deadlock", res.Local)
	}
	if res.Deadlock == nil {
		t.Fatal("no Definition 6 witness")
	}
	s := Replay(sc, res.Trace)
	if err := waitfor.Verify(s, res.Deadlock); err != nil {
		t.Fatalf("replayed witness: %v", err)
	}
}

// TestLivenessParity pins the liveness search to the plain search across
// every paper scenario and Gen(2..4). All of these are purely oblivious,
// where maskAll adds nothing and the liveness search explores exactly
// Search's space, so the mapping is exact at every stall budget: equal
// state counts, plain no-deadlock ⇔ liveness no-deadlock, plain deadlock
// ⇔ liveness deadlock-or-local-deadlock, and livelock is impossible —
// oblivious messages have no selection to hold stale.
func TestLivenessParity(t *testing.T) {
	cases := parityCases()
	cases = append(cases, parityCase{
		name:  "gen4",
		sc:    papernets.GenK(4).Scenario,
		opts:  SearchOptions{StallBudget: 4, FreezeInTransitOnly: true},
		heavy: true,
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			plain := Search(tc.sc, tc.opts)
			liv := SearchLiveness(tc.sc, tc.opts)
			if liv.States != plain.States {
				t.Fatalf("liveness explored %d states, plain %d; oblivious spaces must match", liv.States, plain.States)
			}
			switch plain.Verdict {
			case VerdictNoDeadlock:
				if liv.Verdict != VerdictNoDeadlock {
					t.Fatalf("liveness verdict %v; plain engine proved no-deadlock", liv.Verdict)
				}
			case VerdictDeadlock:
				if liv.Verdict != VerdictDeadlock && liv.Verdict != VerdictLocalDeadlock {
					t.Fatalf("liveness verdict %v; plain engine found a deadlock", liv.Verdict)
				}
				s := Replay(tc.sc, liv.Trace)
				if liv.Verdict == VerdictLocalDeadlock {
					if err := waitfor.VerifyLocal(s, liv.Local); err != nil {
						t.Fatalf("local witness: %v", err)
					}
				} else if err := waitfor.Verify(s, liv.Deadlock); err != nil {
					t.Fatalf("deadlock witness: %v", err)
				}
			default:
				t.Fatalf("plain verdict %v; parity cases must be decidable", plain.Verdict)
			}
		})
	}
}

// TestLivenessWorkerParity: the liveness search inherits Search's
// determinism contract, so one and four workers must agree on the
// verdict, the state count and every witness — trace, local-deadlock
// witness and lasso — across local deadlock, livelock (with either
// candidate order), adaptive and oblivious scenarios with and without a
// stall budget. Every lasso must loop on a single state (monotonicity,
// DESIGN §8) and replay.
func TestLivenessWorkerParity(t *testing.T) {
	diamond, _ := twoBranchScenario()
	scenarios := []struct {
		name string
		sc   sim.Scenario
	}{
		{"localrings", papernets.LocalRings()},
		{"staleselection", papernets.StaleSelection()},
		{"staleselection-reversed", reversedStaleSelection()},
		{"diamond", diamond},
		{"figure2", papernets.Figure2().Scenario},
		{"gen2", papernets.GenK(2).Scenario},
	}
	for _, sc := range scenarios {
		for _, budget := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/stall%d", sc.name, budget), func(t *testing.T) {
				opts := SearchOptions{StallBudget: budget, FreezeInTransitOnly: true, Parallelism: 1}
				seq := SearchLiveness(sc.sc, opts)
				opts.Parallelism = 4
				par := SearchLiveness(sc.sc, opts)
				if par.Verdict != seq.Verdict || par.States != seq.States {
					t.Fatalf("4 workers: %v/%d states; 1 worker: %v/%d", par.Verdict, par.States, seq.Verdict, seq.States)
				}
				if !reflect.DeepEqual(par.Trace, seq.Trace) || !reflect.DeepEqual(par.Local, seq.Local) ||
					!reflect.DeepEqual(par.Lasso, seq.Lasso) {
					t.Fatal("witnesses differ between 1 and 4 workers")
				}
				if seq.Verdict == VerdictLivelock {
					if len(seq.Lasso.Loop) != 1 {
						t.Fatalf("lasso loop has %d decisions; every loop is a self-loop", len(seq.Lasso.Loop))
					}
					if err := VerifyLasso(sc.sc, seq.Lasso); err != nil {
						t.Fatalf("lasso witness: %v", err)
					}
				}
			})
		}
	}
}

// TestLivenessExhausted: the state cap applies to the liveness search
// exactly as it does to Search.
func TestLivenessExhausted(t *testing.T) {
	res := SearchLiveness(papernets.Figure1().Scenario, SearchOptions{MaxStates: 3})
	if res.Verdict != VerdictExhausted {
		t.Fatalf("verdict = %v; want exhausted", res.Verdict)
	}
}

// TestLivenessIgnoresReductions: a requested reduction is cleared and
// surfaced as a warning, never silently applied.
func TestLivenessIgnoresReductions(t *testing.T) {
	res := SearchLiveness(ringScenario(2), SearchOptions{Reduction: RedPOR})
	if res.Reduction != RedNone {
		t.Fatalf("reduction %v ran; liveness must explore the full space", res.Reduction)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("no warning about the ignored reduction")
	}
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict = %v; want deadlock", res.Verdict)
	}
}
