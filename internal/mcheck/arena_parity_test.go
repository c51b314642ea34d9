package mcheck

import (
	"testing"

	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/waitfor"
)

// Seed-engine golden anchors: verdicts and exhaustive state counts the
// pre-arena (map-per-cycle) simulator produced for the paper scenarios, as
// recorded by the benchmark rows at the time of the hot-path refactor. The
// arena-based simulator must reproduce every one exactly — state counts
// are a strong fingerprint of the whole transition relation, so a single
// drifted count means the refactor changed simulation semantics, not just
// its memory layout.
type goldenCase struct {
	name    string
	sc      sim.Scenario
	opts    SearchOptions
	verdict Verdict
	states  int
	heavy   bool // skipped with -short
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "figure1", sc: papernets.Figure1().Scenario,
			verdict: VerdictNoDeadlock, states: 2996},
		{name: "figure1-skew1", sc: papernets.Figure1().Scenario,
			opts:    SearchOptions{StallBudget: 1, FreezeInTransitOnly: true},
			verdict: VerdictDeadlock, states: 4768, heavy: true},
		{name: "figure2", sc: papernets.Figure2().Scenario,
			verdict: VerdictDeadlock, states: 57},
		{name: "gen2-stall2", sc: papernets.GenK(2).Scenario,
			opts:    SearchOptions{StallBudget: 2, FreezeInTransitOnly: true},
			verdict: VerdictDeadlock, states: 8385, heavy: true},
		{name: "gen3-stall3", sc: papernets.GenK(3).Scenario,
			opts:    SearchOptions{StallBudget: 3, FreezeInTransitOnly: true},
			verdict: VerdictDeadlock, heavy: true}, // count asserted across workers only
		{name: "gen4-stall4", sc: papernets.GenK(4).Scenario,
			opts:    SearchOptions{StallBudget: 4, FreezeInTransitOnly: true},
			verdict: VerdictDeadlock, states: 19733, heavy: true},
	}
}

// TestArenaGoldenStateCounts pins the arena-based engine to the seed
// engine's verdicts and state counts, sequentially and with Parallelism >
// 1 (the pooled CopyFrom path), so `go test -race` exercises the scratch
// arenas under the parallel expansion workers.
func TestArenaGoldenStateCounts(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy golden case skipped in -short mode")
			}
			seq := Search(tc.sc, withWorkers(tc.opts, 1))
			if seq.Verdict != tc.verdict {
				t.Fatalf("sequential verdict %v, want %v", seq.Verdict, tc.verdict)
			}
			if tc.states != 0 && seq.States != tc.states {
				t.Fatalf("sequential states %d, seed engine recorded %d", seq.States, tc.states)
			}
			for _, workers := range []int{2, 4} {
				par := Search(tc.sc, withWorkers(tc.opts, workers))
				if par.Verdict != seq.Verdict || par.States != seq.States {
					t.Fatalf("workers=%d: (%v, %d states) != sequential (%v, %d states)",
						workers, par.Verdict, par.States, seq.Verdict, seq.States)
				}
			}
		})
	}
	// The six Figure 3 searches are anchored as a sum, matching the seed
	// engine's E5_Figure3_SearchAll row.
	t.Run("figure3-all", func(t *testing.T) {
		if testing.Short() {
			t.Skip("heavy golden case skipped in -short mode")
		}
		total := 0
		for l := byte('a'); l <= 'f'; l++ {
			total += Search(papernets.Figure3(l).Scenario, SearchOptions{Parallelism: 1}).States
		}
		if total != 8743 {
			t.Fatalf("figure3 a..f total states %d, seed engine recorded 8743", total)
		}
	})
}

func withWorkers(o SearchOptions, n int) SearchOptions {
	o.Parallelism = n
	return o
}

// TestArenaGoldenWitnessReplay re-checks that deadlock witnesses out of
// the arena-based engine still replay: the witness path drives a fresh
// simulator into a state the local-deadlock verifier confirms.
func TestArenaGoldenWitnessReplay(t *testing.T) {
	res := Search(papernets.Figure2().Scenario, SearchOptions{Parallelism: 4})
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(res.Trace) == 0 {
		t.Fatal("deadlock verdict without a witness trace")
	}
	s := Replay(papernets.Figure2().Scenario, res.Trace)
	if err := waitfor.Verify(s, res.Deadlock); err != nil {
		t.Fatalf("witness replay failed: %v", err)
	}
}
