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

// statefulArbiter carries per-instance mutable state and implements
// neither StatelessArbiter nor ArbiterCloner: the engines must refuse it.
type statefulArbiter struct{ grants map[int]int }

func (a *statefulArbiter) Pick(_ *sim.Sim, _ topology.ChannelID, contenders []int) int {
	id := contenders[0]
	a.grants[id]++
	return id
}

// cloningArbiter is stateful but clone-safe.
type cloningArbiter struct{ grants map[int]int }

func (a *cloningArbiter) Pick(_ *sim.Sim, _ topology.ChannelID, contenders []int) int {
	id := contenders[0]
	a.grants[id]++
	return id
}

func (a *cloningArbiter) CloneArbiter() sim.Arbiter {
	g := make(map[int]int, len(a.grants))
	for k, v := range a.grants {
		g[k] = v
	}
	return &cloningArbiter{grants: g}
}

func TestSearchRejectsOpaqueStatefulArbiter(t *testing.T) {
	sc := ringScenario(2)
	sc.Cfg.Arbiter = &statefulArbiter{grants: map[int]int{}}
	defer func() {
		if recover() == nil {
			t.Fatal("Search accepted an arbiter with hidden per-instance state")
		}
	}()
	Search(sc, SearchOptions{})
}

func TestSearchLivenessRejectsOpaqueStatefulArbiter(t *testing.T) {
	sc := ringScenario(2)
	sc.Cfg.Arbiter = &statefulArbiter{grants: map[int]int{}}
	defer func() {
		if recover() == nil {
			t.Fatal("SearchLiveness accepted an arbiter with hidden per-instance state")
		}
	}()
	SearchLiveness(sc, SearchOptions{})
}

func TestSearchAcceptsCloningArbiter(t *testing.T) {
	sc := ringScenario(2)
	root := &cloningArbiter{grants: map[int]int{}}
	sc.Cfg.Arbiter = root
	res := Search(sc, SearchOptions{})
	if res.Verdict != VerdictDeadlock {
		t.Fatalf("verdict = %v; want deadlock", res.Verdict)
	}
	// The search's own picks bypass the arbiter (StepWithPicks), so the
	// root instance must be untouched — branches get private clones.
	if len(root.grants) != 0 {
		t.Fatalf("root arbiter mutated by the search: %v", root.grants)
	}
}
