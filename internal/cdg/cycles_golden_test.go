package cdg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/topology"
)

// goldenLimits are the Cycles limits TestCyclesGolden hashes. The
// dependency graphs of RandomMinimal on a 4×4 mesh hold 0.7 to 2.7 million
// elementary cycles, so they are hashed at boundedLimits instead.
var (
	goldenLimits  = []int{0, 1, 7, 64}
	boundedLimits = []int{1, 7, 64, 4096}
)

// goldenGraph is one dependency graph of TestCyclesGolden; bounded marks
// a graph too rich in cycles to enumerate without a limit.
type goldenGraph struct {
	name    string
	mk      func() routing.Algorithm
	bounded bool
}

// limits returns the Cycles limits the golden hashes for c.
func (c goldenGraph) limits() []int {
	if c.bounded {
		return boundedLimits
	}
	return goldenLimits
}

// goldenGraphs lists the algorithms whose dependency graphs
// TestCyclesGolden enumerates.
func goldenGraphs() []goldenGraph {
	var out []goldenGraph
	add := func(name string, mk func() routing.Algorithm) { out = append(out, goldenGraph{name: name, mk: mk}) }
	add("figure1", func() routing.Algorithm { return papernets.Figure1().Alg })
	add("figure2", func() routing.Algorithm { return papernets.Figure2().Alg })
	for l := byte('a'); l <= 'f'; l++ {
		add(fmt.Sprintf("figure3%c", l), func() routing.Algorithm { return papernets.Figure3(l).Alg })
	}
	for k := 2; k <= 4; k++ {
		add(fmt.Sprintf("gen%d", k), func() routing.Algorithm { return papernets.GenK(k).Alg })
	}
	for _, side := range []int{3, 4} {
		seeds := int64(20)
		if side == 4 {
			seeds = 3
		}
		for seed := int64(0); seed < seeds; seed++ {
			add(fmt.Sprintf("randmin%d.mesh%dx%d", seed, side, side), func() routing.Algorithm {
				return routing.RandomMinimal(topology.NewMesh([]int{side, side}, 1).Network, seed)
			})
			out[len(out)-1].bounded = side == 4
		}
	}
	add("bfs.uring6", func() routing.Algorithm { return routing.ShortestBFS(topology.NewRing(6, false)) })
	add("bfs.torus4x4.vc1", func() routing.Algorithm {
		return routing.ShortestBFS(topology.NewTorus([]int{4, 4}, 1).Network)
	})
	add("hub0.ring6", func() routing.Algorithm { return routing.Hub(topology.NewRing(6, true), 0) })
	return out
}

// cyclesDigest hashes Cycles(limit) for every limit as little-endian
// words: the limit, the truncation flag, the number of cycles and each
// cycle's length and channels.
func cyclesDigest(g *Graph, limits []int) string {
	h := sha256.New()
	var w [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	for _, limit := range limits {
		cycles, truncated := g.Cycles(limit)
		put(limit)
		if truncated {
			put(1)
		} else {
			put(0)
		}
		put(len(cycles))
		for _, c := range cycles {
			put(len(c))
			for _, ch := range c {
				put(int(ch))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCyclesGolden pins the enumerated cycles, their order and the
// truncation flag at several limits. The digests were recorded with the
// map-based Johnson enumerator, so they certify that the array-based one
// visits the same cycles in the same order. Regenerate only for an
// intended change of enumeration, with go test ./internal/cdg -run
// TestCyclesGolden -v (the log prints every digest).
func TestCyclesGolden(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range goldenGraphs() {
		if seen[c.name] {
			t.Fatalf("duplicate golden name %s", c.name)
		}
		seen[c.name] = true
		got := cyclesDigest(New(c.mk()), c.limits())
		t.Logf("%q: %q,", c.name, got)
		if want := cyclesGolden[c.name]; got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
	if len(seen) != len(cyclesGolden) {
		t.Errorf("%d graphs hashed, %d digests pinned", len(seen), len(cyclesGolden))
	}
}

// bruteCycles enumerates every elementary cycle by a plain depth-first
// search from each vertex s over vertices greater than s, so each cycle is
// found once, from its smallest channel. Cycles are sorted as Cycles
// sorts them.
func bruteCycles(g *Graph) []Cycle {
	var out []Cycle
	n := g.Network().NumChannels()
	onPath := make([]bool, n)
	var path []topology.ChannelID
	var dfs func(s, v topology.ChannelID)
	dfs = func(s, v topology.ChannelID) {
		path = append(path, v)
		onPath[v] = true
		for _, w := range g.Successors(v) {
			if w == s {
				out = append(out, slices.Clone(Cycle(path)))
			} else if w > s && !onPath[w] {
				dfs(s, w)
			}
		}
		onPath[v] = false
		path = path[:len(path)-1]
	}
	for s := 0; s < n; s++ {
		dfs(topology.ChannelID(s), topology.ChannelID(s))
	}
	slices.SortFunc(out, func(a, b Cycle) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	return out
}

// TestCyclesMatchBruteForce checks that Johnson's enumeration finds
// exactly the elementary cycles of a brute-force search on every golden
// graph that is enumerated without a limit.
func TestCyclesMatchBruteForce(t *testing.T) {
	for _, c := range goldenGraphs() {
		if c.bounded {
			continue
		}
		g := New(c.mk())
		got, truncated := g.Cycles(0)
		if truncated {
			t.Fatalf("%s: Cycles(0) truncated", c.name)
		}
		want := bruteCycles(g)
		if !slices.EqualFunc(got, want, func(a, b Cycle) bool { return slices.Equal(a, b) }) {
			t.Errorf("%s: Cycles(0) found %d cycles, brute force %d\n got %v\nwant %v", c.name, len(got), len(want), got, want)
		}
	}
}

var cyclesGolden = map[string]string{
	"figure1":           "b0692a9c945c7a66",
	"figure2":           "6ad1f3ccb16f78e0",
	"figure3a":          "bad6b5daee6afe08",
	"figure3b":          "e56910b6830ac483",
	"figure3c":          "50f9907adbb39a57",
	"figure3d":          "75c175a0bbd759a4",
	"figure3e":          "b0692a9c945c7a66",
	"figure3f":          "ab85e2500da52523",
	"gen2":              "a2e1fe12c727c702",
	"gen3":              "9085365b2919e7e7",
	"gen4":              "03b862d3e89663e7",
	"randmin0.mesh3x3":  "b4f2c2945c82c74d",
	"randmin1.mesh3x3":  "b14ae80932852a02",
	"randmin2.mesh3x3":  "2d702d6d6ee99c8b",
	"randmin3.mesh3x3":  "bdf47220964a392b",
	"randmin4.mesh3x3":  "3b0233fba7b88e7f",
	"randmin5.mesh3x3":  "0545cb4a736858d8",
	"randmin6.mesh3x3":  "a55639cb6162514a",
	"randmin7.mesh3x3":  "24f7c18d4a5de204",
	"randmin8.mesh3x3":  "e21077af2526fbfe",
	"randmin9.mesh3x3":  "88a0231a5ea85e77",
	"randmin10.mesh3x3": "e29803945d965cca",
	"randmin11.mesh3x3": "4b898872330d1024",
	"randmin12.mesh3x3": "d68860844ec41ddd",
	"randmin13.mesh3x3": "f96fb2cc9094697b",
	"randmin14.mesh3x3": "481757e112322899",
	"randmin15.mesh3x3": "753dfa549993458f",
	"randmin16.mesh3x3": "f43cc4e24a971375",
	"randmin17.mesh3x3": "d5c7f344042b816c",
	"randmin18.mesh3x3": "58f4a6bf81a502dd",
	"randmin19.mesh3x3": "ef6cde48361419d3",
	"randmin0.mesh4x4":  "012acac8c9219aa2",
	"randmin1.mesh4x4":  "85a24e4db52c3252",
	"randmin2.mesh4x4":  "9cedee407ccac1fd",
	"bfs.uring6":        "a823b2d15d9985e0",
	"bfs.torus4x4.vc1":  "4c8c87615941d46d",
	"hub0.ring6":        "05ccf482d7ee15b3",
}
