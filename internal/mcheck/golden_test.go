package mcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/papernets"
)

// searchGoldenCase is one pinned search configuration of TestSearchGolden.
type searchGoldenCase struct {
	name  string
	net   *papernets.Net
	opts  SearchOptions
	heavy bool // skipped with -short
}

func searchGoldenCases() []searchGoldenCase {
	cases := []searchGoldenCase{
		{name: "figure1", net: papernets.Figure1(), opts: SearchOptions{Parallelism: 1}},
		{name: "figure2", net: papernets.Figure2(), opts: SearchOptions{Parallelism: 1}},
	}
	for k := 1; k <= 5; k++ {
		for _, red := range []Reduction{RedNone, RedPOR, RedSymmetry, RedAll} {
			for _, workers := range []int{1, 3} {
				cases = append(cases, searchGoldenCase{
					name: fmt.Sprintf("gen%d-stall%d-%v-w%d", k, k, red, workers),
					net:  papernets.GenK(k),
					opts: SearchOptions{StallBudget: k, FreezeInTransitOnly: true,
						Reduction: red, Parallelism: workers},
					heavy: k >= 4,
				})
			}
		}
	}
	return append(cases,
		searchGoldenCase{name: "gen3-stall1-w1", net: papernets.GenK(3),
			opts: SearchOptions{StallBudget: 1, FreezeInTransitOnly: true, Parallelism: 1}},
		searchGoldenCase{name: "gen7-stall7-por+sym-w2", net: papernets.GenK(7),
			opts: SearchOptions{StallBudget: 7, FreezeInTransitOnly: true,
				Reduction: RedAll, Parallelism: 2},
			heavy: true},
	)
}

// searchDigest hashes every deterministic output of a search: the
// verdict, the counters the reductions and the visited set report, and
// the full witness. fmt prints maps in key order, so the digest is stable.
func searchDigest(r SearchResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%d|%d|%d|%d|%+v|", r.Verdict, r.States, r.PeakVisited, r.StatesPruned, r.SleepSetHits, r.Trace)
	if r.Deadlock != nil {
		fmt.Fprintf(h, "%+v", *r.Deadlock)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// searchGolden pins searchDigest for every searchGoldenCases configuration.
// The digests were recorded on the engine that carried its BFS frontier
// as live simulators, so they certify that the encoded-batch frontier
// explores the same states in the same order and rebuilds the same
// witnesses. Regenerate only for an intended change of traversal, with
// go test ./internal/mcheck -run TestSearchGolden -v (the log prints
// every digest).
var searchGolden = map[string]string{
	"figure1":                "7ec9e96d7e3a2237",
	"figure2":                "8114f0e7d1f05e8f",
	"gen1-stall1-none-w1":    "391529068d36d724",
	"gen1-stall1-none-w3":    "391529068d36d724",
	"gen1-stall1-por-w1":     "a0fe387fb5914d6b",
	"gen1-stall1-por-w3":     "a0fe387fb5914d6b",
	"gen1-stall1-sym-w1":     "7924f5e8b78cab7c",
	"gen1-stall1-sym-w3":     "7924f5e8b78cab7c",
	"gen1-stall1-por+sym-w1": "ad02fa3f1ff3bb8e",
	"gen1-stall1-por+sym-w3": "ad02fa3f1ff3bb8e",
	"gen2-stall2-none-w1":    "e148ee6595e1e03b",
	"gen2-stall2-none-w3":    "e148ee6595e1e03b",
	"gen2-stall2-por-w1":     "36ecdc5f9be87c97",
	"gen2-stall2-por-w3":     "36ecdc5f9be87c97",
	"gen2-stall2-sym-w1":     "31d3b6ada8227374",
	"gen2-stall2-sym-w3":     "31d3b6ada8227374",
	"gen2-stall2-por+sym-w1": "9f2b14b896c6d4f9",
	"gen2-stall2-por+sym-w3": "9f2b14b896c6d4f9",
	"gen3-stall3-none-w1":    "d54dbd4fab2ae1ca",
	"gen3-stall3-none-w3":    "d54dbd4fab2ae1ca",
	"gen3-stall3-por-w1":     "085b27b3619919b7",
	"gen3-stall3-por-w3":     "085b27b3619919b7",
	"gen3-stall3-sym-w1":     "7829cae245fa18b8",
	"gen3-stall3-sym-w3":     "7829cae245fa18b8",
	"gen3-stall3-por+sym-w1": "84c4a5c355805ad3",
	"gen3-stall3-por+sym-w3": "84c4a5c355805ad3",
	"gen4-stall4-none-w1":    "303e4a69d336825f",
	"gen4-stall4-none-w3":    "303e4a69d336825f",
	"gen4-stall4-por-w1":     "172071ea27cfd0a5",
	"gen4-stall4-por-w3":     "172071ea27cfd0a5",
	"gen4-stall4-sym-w1":     "698fe76f267da54f",
	"gen4-stall4-sym-w3":     "698fe76f267da54f",
	"gen4-stall4-por+sym-w1": "76292314f5d0e3ce",
	"gen4-stall4-por+sym-w3": "76292314f5d0e3ce",
	"gen5-stall5-none-w1":    "bb11b2b43e2638ba",
	"gen5-stall5-none-w3":    "bb11b2b43e2638ba",
	"gen5-stall5-por-w1":     "d6a1a75432edab0f",
	"gen5-stall5-por-w3":     "d6a1a75432edab0f",
	"gen5-stall5-sym-w1":     "5f1f3dcd95d8f0a4",
	"gen5-stall5-sym-w3":     "5f1f3dcd95d8f0a4",
	"gen5-stall5-por+sym-w1": "90e16586bf59cfc1",
	"gen5-stall5-por+sym-w3": "90e16586bf59cfc1",
	"gen3-stall1-w1":         "04046181676f9d40",
	"gen7-stall7-por+sym-w2": "3d9f89cd4ee21bf5",
}

func TestSearchGolden(t *testing.T) {
	for _, tc := range searchGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy golden case; run without -short")
			}
			got := searchDigest(Search(tc.net.Scenario, tc.opts))
			t.Logf("%q: %q,", tc.name, got)
			if want := searchGolden[tc.name]; got != want {
				t.Fatalf("digest %s, want %s", got, want)
			}
		})
	}
}
