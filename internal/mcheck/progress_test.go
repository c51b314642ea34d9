package mcheck

import (
	"testing"

	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/topology"
)

// emptyScenario has a network but no messages: the search's whole state
// space is the root state.
func emptyScenario() sim.Scenario {
	return sim.Scenario{Name: "empty", Net: topology.NewRing(4, false)}
}

// gaugeReader is a tracer that snapshots the search gauges whenever the
// search emits an event. The reporter emits a level's event before it sets
// that level's gauges, so each snapshot holds the previous level's values,
// and the KindSearchDone snapshot holds the last level's.
type gaugeReader struct {
	reg   *obsv.Registry
	names []string
	snaps []map[string]int64
}

func (g *gaugeReader) Event(obsv.Event) {
	snap := map[string]int64{}
	for _, n := range g.names {
		if v, ok := g.reg.GaugeValue(n); ok {
			snap[n] = v
		}
	}
	if len(snap) > 0 {
		g.snaps = append(g.snaps, snap)
	}
}

// The registry is the search's live channel: every BFS level sets the
// level, frontier, state and visited-set gauges (and the spill gauges on
// the spill backend), the counts a live reader sees never decrease, and
// the final gauges equal the result — for both engines, for a search that
// never expands past the root, and on both visited backends.
func TestSearchGaugesLive(t *testing.T) {
	spill := VisitedConfig{Backend: VisitedSpill, MemBudget: 1}
	for _, tc := range []struct {
		name     string
		sc       sim.Scenario
		run      func(sim.Scenario, SearchOptions) SearchResult
		visited  VisitedConfig
		minSnaps int
	}{
		{"search", ringScenario(2), Search, VisitedConfig{}, 2},
		{"liveness", ringScenario(2), SearchLiveness, VisitedConfig{}, 2},
		{"spill", ringScenario(2), Search, spill, 2},
		{"empty", emptyScenario(), Search, VisitedConfig{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obsv.NewRegistry()
			names := []string{"mcheck_search_level", "mcheck_frontier_peak", "mcheck_states", "mcheck_visited_bytes"}
			if tc.visited.Backend == VisitedSpill {
				names = append(names, "mcheck_visited_spill_bytes", "mcheck_visited_spill_runs")
			}
			live := &gaugeReader{reg: reg, names: names}
			res := tc.run(tc.sc, SearchOptions{Metrics: reg, Tracer: live, Visited: tc.visited, Parallelism: 1})

			if len(live.snaps) < tc.minSnaps {
				t.Fatalf("%d live snapshots, want at least %d", len(live.snaps), tc.minSnaps)
			}
			for i, snap := range live.snaps {
				if len(snap) != len(names) {
					t.Fatalf("snapshot %d = %v, want every gauge of %v", i, snap, names)
				}
				if i == 0 {
					continue
				}
				prev := live.snaps[i-1]
				for _, n := range []string{"mcheck_states", "mcheck_frontier_peak"} {
					if snap[n] < prev[n] {
						t.Fatalf("%s decreased: snapshot %d = %d, snapshot %d = %d", n, i-1, prev[n], i, snap[n])
					}
				}
				if snap["mcheck_search_level"] != prev["mcheck_search_level"]+1 {
					t.Fatalf("levels %d then %d, want consecutive", prev["mcheck_search_level"], snap["mcheck_search_level"])
				}
			}

			final := map[string]int64{
				"mcheck_states":        int64(res.States),
				"mcheck_peak_visited":  int64(res.PeakVisited),
				"mcheck_workers":       int64(res.Workers),
				"mcheck_visited_bytes": res.Visited.Bytes,
			}
			if tc.visited.Backend == VisitedSpill {
				final["mcheck_visited_spill_bytes"] = res.Visited.SpillBytes
				final["mcheck_visited_spill_runs"] = int64(res.Visited.SpillRuns)
			}
			for n, want := range final {
				if got, ok := reg.GaugeValue(n); !ok || got != want {
					t.Errorf("final %s = %d (present %v), want %d", n, got, ok, want)
				}
			}
			if last := live.snaps[len(live.snaps)-1]["mcheck_states"]; last > int64(res.States) {
				t.Errorf("live states %d exceed the result's %d", last, res.States)
			}
		})
	}
}
