package mcheck

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/waitfor"
)

// parityCase is one scenario the sequential and parallel engines must agree
// on bit for bit.
type parityCase struct {
	name  string
	sc    sim.Scenario
	opts  SearchOptions
	heavy bool // skipped with -short
}

func parityCases() []parityCase {
	cases := []parityCase{
		{name: "figure1", sc: papernets.Figure1().Scenario},
		{name: "figure1-skew", sc: papernets.Figure1().Scenario,
			opts: SearchOptions{StallBudget: 1, FreezeInTransitOnly: true}},
		{name: "figure2", sc: papernets.Figure2().Scenario},
		{name: "ring4", sc: ringScenario(2)},
		{name: "safe", sc: safeScenario()},
	}
	for letter := byte('a'); letter <= 'f'; letter++ {
		cases = append(cases, parityCase{
			name:  fmt.Sprintf("figure3%c", letter),
			sc:    papernets.Figure3(letter).Scenario,
			heavy: letter != 'a', // one representative stays in short mode
		})
	}
	for k := 1; k <= 3; k++ {
		cases = append(cases, parityCase{
			name:  fmt.Sprintf("gen%d", k),
			sc:    papernets.GenK(k).Scenario,
			opts:  SearchOptions{StallBudget: k, FreezeInTransitOnly: true},
			heavy: k > 1,
		})
	}
	return cases
}

// TestSearchParallelMatchesSequential asserts that the parallel engine is
// observationally identical to one-worker execution: same verdict, same
// state count, and — for deadlock verdicts — a witness trace that replays
// to the same Definition 6 cycle. This is the determinism contract the
// level-synchronized merge is designed around. Short mode keeps the cheap
// cases (including parallel runs, so `go test -race -short` exercises the
// concurrent paths); heavy cases need a full run.
func TestSearchParallelMatchesSequential(t *testing.T) {
	for _, tc := range parityCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			seqOpts := tc.opts
			seqOpts.Parallelism = 1
			seq := Search(tc.sc, seqOpts)
			for _, workers := range []int{2, 4} {
				parOpts := tc.opts
				parOpts.Parallelism = workers
				par := Search(tc.sc, parOpts)
				if par.Verdict != seq.Verdict {
					t.Fatalf("workers=%d: verdict %v != sequential %v", workers, par.Verdict, seq.Verdict)
				}
				if par.States != seq.States {
					t.Fatalf("workers=%d: states %d != sequential %d", workers, par.States, seq.States)
				}
				if par.Workers != workers {
					t.Errorf("workers=%d: result reports %d workers", workers, par.Workers)
				}
				if seq.Verdict != VerdictDeadlock {
					continue
				}
				if !reflect.DeepEqual(par.Trace, seq.Trace) {
					t.Fatalf("workers=%d: witness trace differs from sequential", workers)
				}
				if !reflect.DeepEqual(par.Deadlock.Cycle, seq.Deadlock.Cycle) {
					t.Fatalf("workers=%d: deadlock cycle %v != sequential %v",
						workers, par.Deadlock.Cycle, seq.Deadlock.Cycle)
				}
				// The witness must independently replay to the claimed cycle.
				s := Replay(tc.sc, par.Trace)
				if err := waitfor.Verify(s, par.Deadlock); err != nil {
					t.Fatalf("workers=%d: replayed witness invalid: %v", workers, err)
				}
			}
		})
	}
}

// TestSearchReportsThroughput sanity-checks the new perf fields.
func TestSearchReportsThroughput(t *testing.T) {
	res := Search(ringScenario(2), SearchOptions{})
	if res.Elapsed <= 0 {
		t.Fatalf("Elapsed = %v", res.Elapsed)
	}
	if res.StatesPerSec <= 0 {
		t.Fatalf("StatesPerSec = %v", res.StatesPerSec)
	}
	// With no stall budget there are no budget-improving re-insertions, so
	// counted states and retained encodings correspond one to one.
	if res.PeakVisited != res.States {
		t.Fatalf("PeakVisited = %d, States = %d; want equal for a budget-0 search", res.PeakVisited, res.States)
	}
	if res.Workers < 1 {
		t.Fatalf("Workers = %d", res.Workers)
	}
}

// panicArbiter fails any search that consults the scenario's arbiter.
type panicArbiter struct{}

func (panicArbiter) Pick(*sim.Sim, topology.ChannelID, []int) int {
	panic("mcheck: the search consulted the scenario's arbiter")
}

// TestSearchNeverConsultsArbiter: under the Section 3 adversary any
// contender may win a channel, so both engines enumerate every arbitration
// outcome as picks and never ask the scenario's arbiter. A Pick that
// panics must leave every verdict, state count and witness equal to the
// default arbiter's, across stall budgets, buffer depths, adaptive and
// liveness scenarios, and reduced and unreduced searches.
func TestSearchNeverConsultsArbiter(t *testing.T) {
	type arbCase struct {
		name  string
		sc    sim.Scenario
		stall int
		heavy bool // skipped with -short
	}
	var cases []arbCase
	for stall := 0; stall <= 2; stall++ {
		cases = append(cases, arbCase{name: fmt.Sprintf("figure1-stall%d", stall), sc: papernets.Figure1().Scenario, stall: stall})
	}
	cases = append(cases, arbCase{name: "figure2", sc: papernets.Figure2().Scenario})
	for letter := byte('a'); letter <= 'f'; letter++ {
		for _, stall := range []int{0, 2} {
			cases = append(cases, arbCase{name: fmt.Sprintf("figure3%c-stall%d", letter, stall),
				sc: papernets.Figure3(letter).Scenario, stall: stall, heavy: letter != 'a' || stall > 0})
		}
	}
	for k := 2; k <= 4; k++ {
		cases = append(cases, arbCase{name: fmt.Sprintf("gen%d-stall%d", k, k), sc: papernets.GenK(k).Scenario, stall: k, heavy: k > 2})
	}
	for depth := 2; depth <= 3; depth++ {
		for _, pn := range []*papernets.Net{papernets.Figure1(), papernets.Figure2()} {
			sc := pn.Scenario
			sc.Cfg.BufferDepth = depth
			cases = append(cases, arbCase{name: fmt.Sprintf("%s-depth%d", sc.Name, depth), sc: sc})
		}
	}
	diamond, _ := twoBranchScenario()
	cases = append(cases,
		arbCase{name: "diamond", sc: diamond},
		arbCase{name: "staleselection", sc: papernets.StaleSelection()},
		arbCase{name: "localrings", sc: papernets.LocalRings()})

	engines := []struct {
		name string
		run  func(sim.Scenario, SearchOptions) SearchResult
	}{{"search", Search}, {"liveness", SearchLiveness}}
	for _, tc := range cases {
		for _, eng := range engines {
			for _, red := range []Reduction{RedNone, RedAll} {
				if eng.name == "liveness" && red != RedNone {
					continue // the liveness search ignores reductions
				}
				t.Run(fmt.Sprintf("%s/%s/%v", tc.name, eng.name, red), func(t *testing.T) {
					if tc.heavy && testing.Short() {
						t.Skip("heavy case; run without -short")
					}
					opts := SearchOptions{StallBudget: tc.stall, FreezeInTransitOnly: true, Reduction: red}
					want := eng.run(tc.sc, opts)
					sc := tc.sc
					sc.Cfg.Arbiter = panicArbiter{}
					got := eng.run(sc, opts)
					if got.Verdict != want.Verdict || got.States != want.States ||
						got.PeakVisited != want.PeakVisited || got.StatesPruned != want.StatesPruned {
						t.Fatalf("panicking arbiter: %v, %d states (peak %d, %d pruned); default: %v, %d states (peak %d, %d pruned)",
							got.Verdict, got.States, got.PeakVisited, got.StatesPruned,
							want.Verdict, want.States, want.PeakVisited, want.StatesPruned)
					}
					if !reflect.DeepEqual(got.Trace, want.Trace) || !reflect.DeepEqual(got.Deadlock, want.Deadlock) ||
						!reflect.DeepEqual(got.Local, want.Local) || !reflect.DeepEqual(got.Lasso, want.Lasso) {
						t.Fatal("witnesses differ from the default arbiter's")
					}
				})
			}
		}
	}
}
