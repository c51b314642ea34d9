package mcheck

import (
	"reflect"
	"testing"

	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/waitfor"
)

// spillParityConfig is the spill configuration that must be
// observationally identical to the default in-memory backend. The budget
// is deliberately hostile: one byte, so every shard spills constantly and
// most probes hit disk runs.
var spillParityConfig = VisitedConfig{Backend: VisitedSpill, MemBudget: 1}

// TestVisitedBackendParity is the exactness contract of the pluggable
// visited layer: for every scenario and every worker count, the spill
// backend's verdict, state count, retained-encoding count and (for
// deadlocks) full witness must be byte-identical to the in-memory
// reference. CI runs the gen3 subtest under -race as the parity smoke.
func TestVisitedBackendParity(t *testing.T) {
	for _, tc := range parityCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			refOpts := tc.opts
			refOpts.Parallelism = 1
			ref := Search(tc.sc, refOpts)
			for _, workers := range []int{1, 3} {
				opts := tc.opts
				opts.Parallelism = workers
				opts.Visited = spillParityConfig
				res := Search(tc.sc, opts)
				if res.Verdict != ref.Verdict {
					t.Fatalf("spill workers=%d: verdict %v != reference %v", workers, res.Verdict, ref.Verdict)
				}
				if res.States != ref.States {
					t.Fatalf("spill workers=%d: states %d != reference %d", workers, res.States, ref.States)
				}
				if res.PeakVisited != ref.PeakVisited {
					t.Fatalf("spill workers=%d: peak visited %d != reference %d",
						workers, res.PeakVisited, ref.PeakVisited)
				}
				if ref.Verdict == VerdictDeadlock {
					if !reflect.DeepEqual(res.Trace, ref.Trace) {
						t.Fatalf("spill workers=%d: witness trace differs from reference", workers)
					}
					if !reflect.DeepEqual(res.Deadlock.Cycle, ref.Deadlock.Cycle) {
						t.Fatalf("spill workers=%d: deadlock cycle %v != reference %v",
							workers, res.Deadlock.Cycle, ref.Deadlock.Cycle)
					}
					s := Replay(tc.sc, res.Trace)
					if err := waitfor.Verify(s, res.Deadlock); err != nil {
						t.Fatalf("spill workers=%d: replayed witness invalid: %v", workers, err)
					}
				}
			}
		})
	}
}

// TestVisitedBackendReported pins the accounting surface: the result
// names the backend that ran and its counters are live.
func TestVisitedBackendReported(t *testing.T) {
	sc := ringScenario(2)

	mem := Search(sc, SearchOptions{})
	if mem.Visited.Backend != "mem" {
		t.Fatalf("default backend reported as %q", mem.Visited.Backend)
	}
	if mem.Visited.Entries != mem.PeakVisited || mem.Visited.Bytes <= 0 || mem.Visited.PeakShardEntries <= 0 {
		t.Fatalf("mem accounting implausible: %+v", mem.Visited)
	}

	// ring4's 56 states leave every shard under the minimum spill batch;
	// Figure 1's ~3k states guarantee real spills under a one-byte budget.
	scSpill := papernets.Figure1().Scenario
	memSpill := Search(scSpill, SearchOptions{})
	sp := Search(scSpill, SearchOptions{Visited: VisitedConfig{Backend: VisitedSpill, MemBudget: 1}})
	if sp.Visited.Backend != "spill" {
		t.Fatalf("spill backend reported as %q", sp.Visited.Backend)
	}
	if sp.Visited.SpillRuns <= 0 || sp.Visited.SpillBytes <= 0 || sp.Visited.SpilledEntries <= 0 {
		t.Fatalf("spill backend with a 1-byte budget never spilled: %+v", sp.Visited)
	}
	if sp.Visited.Entries != memSpill.Visited.Entries {
		t.Fatalf("spill distinct entries %d != mem %d", sp.Visited.Entries, memSpill.Visited.Entries)
	}
	if sp.Visited.Bytes >= memSpill.Visited.Bytes {
		t.Fatalf("spill resident bytes %d not below mem %d despite a 1-byte budget",
			sp.Visited.Bytes, memSpill.Visited.Bytes)
	}
}

// TestLivenessBackendParity: the liveness search's verdicts must not
// depend on the visited backend either. The gen3 case inserts thousands
// of distinct encodings from the workers' level arenas, which are reused
// every level, so a store that kept the caller's slice instead of copying
// it would check collisions against whatever the arena holds later: the
// in-memory set would silently fall back to digests and the spill backend
// would write garbage runs and explore a different space. CI runs the
// gen3 case under -race beside the Search parity smoke.
func TestLivenessBackendParity(t *testing.T) {
	cases := []struct {
		name  string
		sc    sim.Scenario
		opts  SearchOptions
		heavy bool
	}{
		{name: "ring4", sc: ringScenario(2)},
		{name: "gen3-stall1", sc: papernets.GenK(3).Scenario,
			opts: SearchOptions{StallBudget: 1, FreezeInTransitOnly: true}, heavy: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy parity case; run without -short")
			}
			ref := SearchLiveness(tc.sc, tc.opts)
			opts := tc.opts
			opts.Visited = spillParityConfig
			res := SearchLiveness(tc.sc, opts)
			if res.Verdict != ref.Verdict || res.States != ref.States || res.PeakVisited != ref.PeakVisited {
				t.Fatalf("spill: liveness %v/%d/%d != reference %v/%d/%d",
					res.Verdict, res.States, res.PeakVisited, ref.Verdict, ref.States, ref.PeakVisited)
			}
		})
	}
}
