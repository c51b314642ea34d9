package mcheck

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// emptyScenario has a network but no messages: the search's whole state
// space is the root state.
func emptyScenario() sim.Scenario {
	return sim.Scenario{Name: "empty", Net: topology.NewRing(4, false)}
}

// A search over zero messages explores exactly the root state and still
// reports progress exactly once — the final report, with the real totals.
func TestProgressEmptyScenario(t *testing.T) {
	var calls []ProgressInfo
	res := Search(emptyScenario(), SearchOptions{
		Progress: func(p ProgressInfo) { calls = append(calls, p) },
	})
	if res.Verdict != VerdictNoDeadlock {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.States != 1 {
		t.Fatalf("states = %d, want 1", res.States)
	}
	if len(calls) != 1 {
		t.Fatalf("progress calls = %d, want exactly the final report", len(calls))
	}
	if calls[0].States != res.States {
		t.Errorf("final report states = %d, result states = %d", calls[0].States, res.States)
	}
}

// A search that finishes before the first throttle tick still delivers
// exactly one Progress call: the final report with the result's totals.
func TestProgressFinishBeforeFirstTick(t *testing.T) {
	var calls []ProgressInfo
	res := Search(ringScenario(2), SearchOptions{
		ProgressEvery: time.Hour,
		Progress:      func(p ProgressInfo) { calls = append(calls, p) },
	})
	if len(calls) != 1 {
		t.Fatalf("progress calls = %d, want 1 (finish-before-first-tick)", len(calls))
	}
	if calls[0].States != res.States {
		t.Errorf("final report states = %d, result states = %d", calls[0].States, res.States)
	}
	if res.Warnings != nil {
		t.Errorf("unexpected warnings: %v", res.Warnings)
	}
}

// With an aggressive tick the per-level reports must show monotonically
// non-decreasing state counts, ending on the exact final total.
func TestProgressStatesMonotonic(t *testing.T) {
	var calls []ProgressInfo
	res := Search(ringScenario(2), SearchOptions{
		ProgressEvery: time.Nanosecond,
		Progress:      func(p ProgressInfo) { calls = append(calls, p) },
	})
	if len(calls) < 2 {
		t.Fatalf("progress calls = %d, want per-level reports", len(calls))
	}
	for i := 1; i < len(calls); i++ {
		if calls[i].States < calls[i-1].States {
			t.Fatalf("states regressed: call %d = %d, call %d = %d",
				i-1, calls[i-1].States, i, calls[i].States)
		}
	}
	if last := calls[len(calls)-1]; last.States != res.States {
		t.Errorf("last report states = %d, result states = %d", last.States, res.States)
	}
}

// engines lists both search entry points, for tests that hold them to the
// same reporting contract.
var engines = []struct {
	name string
	run  func(sim.Scenario, SearchOptions) SearchResult
}{
	{"search", Search},
	{"liveness", SearchLiveness},
}

// A panicking Progress callback must not change the verdict or the state
// count: the panic is contained, reporting stops, and the result carries
// exactly one warning.
func TestProgressCallbackPanicContained(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			baseline := e.run(ringScenario(2), SearchOptions{})

			calls := 0
			res := e.run(ringScenario(2), SearchOptions{
				ProgressEvery: time.Nanosecond,
				Progress: func(ProgressInfo) {
					calls++
					panic("observer bug")
				},
			})
			if res.Verdict != baseline.Verdict || res.States != baseline.States {
				t.Fatalf("panicking callback changed the result: %v/%d vs %v/%d",
					res.Verdict, res.States, baseline.Verdict, baseline.States)
			}
			if calls != 1 {
				t.Errorf("callback ran %d times after panicking, want 1 (disabled after first panic)", calls)
			}
			if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "panicked") {
				t.Errorf("warnings = %v, want one panic warning", res.Warnings)
			}
		})
	}
}

// A panic on the final report (the only one, with a huge tick) is
// contained the same way.
func TestProgressFinalCallPanicContained(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			baseline := e.run(ringScenario(2), SearchOptions{})
			res := e.run(ringScenario(2), SearchOptions{
				ProgressEvery: time.Hour,
				Progress:      func(ProgressInfo) { panic("final-report bug") },
			})
			if res.Verdict != baseline.Verdict || res.States != baseline.States {
				t.Fatalf("panicking final report changed the result: %v/%d vs %v/%d",
					res.Verdict, res.States, baseline.Verdict, baseline.States)
			}
			if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "panicked") {
				t.Errorf("warnings = %v, want one panic warning", res.Warnings)
			}
		})
	}
}
