package papernets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// tableDigest hashes an algorithm's name and the path of every ordered
// (src, dst) pair, src == dst included, as little-endian words: the pair,
// the path length and its channels.
func tableDigest(alg routing.Algorithm) string {
	h := sha256.New()
	h.Write([]byte(alg.Name()))
	var w [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	n := alg.Network().NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := alg.Path(topology.NodeID(s), topology.NodeID(d))
			put(s)
			put(d)
			put(len(p))
			for _, c := range p {
				put(int(c))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenTable is one table of TestRoutingTableGolden.
type goldenTable struct {
	name string
	mk   func() routing.Algorithm
}

// goldenNet names a network builder for the Hub and ShortestBFS tables.
type goldenNet struct {
	name string
	mk   func() *topology.Network
}

// goldenTables lists every table of TestRoutingTableGolden.
func goldenTables() []goldenTable {
	var out []goldenTable
	add := func(name string, mk func() routing.Algorithm) { out = append(out, goldenTable{name, mk}) }
	add("figure1", func() routing.Algorithm { return Figure1().Alg })
	add("figure2", func() routing.Algorithm { return Figure2().Alg })
	for l := byte('a'); l <= 'f'; l++ {
		add(fmt.Sprintf("figure3%c", l), func() routing.Algorithm { return Figure3(l).Alg })
	}
	for k := 1; k <= 8; k++ {
		add(fmt.Sprintf("gen%d", k), func() routing.Algorithm { return GenK(k).Alg })
	}
	for _, p := range []ThreeSharerParams{
		{D: [3]int{2, 2, 2}, C: [3]int{2, 2, 2}},
		{D: [3]int{4, 3, 2}, C: [3]int{2, 3, 4}},
		{D: [3]int{5, 2, 4}, C: [3]int{3, 6, 2}},
	} {
		name := fmt.Sprintf("three%v%v", p.D, p.C)
		add(name, func() routing.Algorithm { return ThreeSharer(name, p).Alg })
	}
	mesh := func(side, vcs int) func() *topology.Network {
		return func() *topology.Network { return topology.NewMesh([]int{side, side}, vcs).Network }
	}
	// Hub routing on networks whose distances are symmetric; on a
	// unidirectional ring a hub walk can hold a channel twice, and such
	// pairs are routed directly instead.
	for _, c := range []goldenNet{
		{"mesh4x4", mesh(4, 1)},
		{"mesh8x8", mesh(8, 1)},
		{"ring9", func() *topology.Network { return topology.NewRing(9, true) }},
	} {
		n := c.mk().NumNodes()
		for _, hub := range []topology.NodeID{0, topology.NodeID(n - 1)} {
			add(fmt.Sprintf("hub%d.%s", hub, c.name), func() routing.Algorithm { return routing.Hub(c.mk(), hub) })
		}
	}
	for _, c := range []goldenNet{
		{"ring7", func() *topology.Network { return topology.NewRing(7, true) }},
		{"uring7", func() *topology.Network { return topology.NewRing(7, false) }},
		{"mesh4x4", mesh(4, 1)},
		{"mesh3x3.vc2", mesh(3, 2)},
		{"torus4x4.vc2", func() *topology.Network { return topology.NewTorus([]int{4, 4}, 2).Network }},
		{"hypercube4", func() *topology.Network { return topology.NewHypercube(4) }},
		{"star6", func() *topology.Network { return topology.NewStar(6) }},
		{"complete6", func() *topology.Network { return topology.NewComplete(6) }},
	} {
		add("bfs."+c.name, func() routing.Algorithm { return routing.ShortestBFS(c.mk()) })
	}
	for _, side := range []int{3, 4} {
		for seed := int64(0); seed < 10; seed++ {
			add(fmt.Sprintf("randmin%d.mesh%dx%d", seed, side, side), func() routing.Algorithm {
				return routing.RandomMinimal(mesh(side, 1)(), seed)
			})
		}
	}
	return out
}

// TestRoutingTableGolden pins every path of the paper networks' tables,
// of Hub, ShortestBFS and RandomMinimal on standard topologies. The
// digests were recorded with per-pair BFS searches into a map-backed
// Table, so they certify that building by BFS trees into the dense table
// gives byte-identical routes. Regenerate only for an intended change of
// routes, with go test ./internal/papernets -run TestRoutingTableGolden -v
// (the log prints every digest).
func TestRoutingTableGolden(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range goldenTables() {
		if seen[c.name] {
			t.Fatalf("duplicate golden name %s", c.name)
		}
		seen[c.name] = true
		got := tableDigest(c.mk())
		t.Logf("%q: %q,", c.name, got)
		if want := tableGolden[c.name]; got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
	if len(seen) != len(tableGolden) {
		t.Errorf("%d tables hashed, %d digests pinned", len(seen), len(tableGolden))
	}
}

var tableGolden = map[string]string{
	"figure1":             "6e6ad8f576853fc2",
	"figure2":             "3c5904b4c9b507b3",
	"figure3a":            "2b9b8772fe7acedf",
	"figure3b":            "142e1a1932f9d30b",
	"figure3c":            "eebae5c2fb16b20c",
	"figure3d":            "f0a9f7303b508ee2",
	"figure3e":            "deb25c4523a4c673",
	"figure3f":            "0c48c4403c9d946b",
	"gen1":                "6e6ad8f576853fc2",
	"gen2":                "02439653ea88c334",
	"gen3":                "3b178efb6615116c",
	"gen4":                "2619c95cdfe236f1",
	"gen5":                "e143bf3241068aee",
	"gen6":                "e1be9fde82a94737",
	"gen7":                "ec637d5d959cd1df",
	"gen8":                "34b1b640255c3a27",
	"three[2 2 2][2 2 2]": "5ae596e61c5a3ed9",
	"three[4 3 2][2 3 4]": "bc160d239160524a",
	"three[5 2 4][3 6 2]": "0d897bc56746f97d",
	"hub0.mesh4x4":        "a81581267048d105",
	"hub15.mesh4x4":       "8ab7835de632750f",
	"hub0.mesh8x8":        "66a286837c2cbcaf",
	"hub63.mesh8x8":       "abf6b801411a5a2e",
	"hub0.ring9":          "b56b42e4d3d4ce9d",
	"hub8.ring9":          "5081260a7f136926",
	"bfs.ring7":           "223f6a808ef8a8c3",
	"bfs.uring7":          "9670bf9281fd0b5e",
	"bfs.mesh4x4":         "0bba234961a2af50",
	"bfs.mesh3x3.vc2":     "1935285100bf9272",
	"bfs.torus4x4.vc2":    "e75d58db052337cb",
	"bfs.hypercube4":      "9132de51219cd6d9",
	"bfs.star6":           "85d35613513d03e9",
	"bfs.complete6":       "56eaca3a5ba44ac0",
	"randmin0.mesh3x3":    "1d2606275b315648",
	"randmin1.mesh3x3":    "ed4988d92e6e1b39",
	"randmin2.mesh3x3":    "15b5ff4daacdfb9c",
	"randmin3.mesh3x3":    "9cfd95274ba079d9",
	"randmin4.mesh3x3":    "dd6ca33faef99cce",
	"randmin5.mesh3x3":    "d9d46c8ad359951a",
	"randmin6.mesh3x3":    "7253b41386398aa8",
	"randmin7.mesh3x3":    "0d4c76430af725e0",
	"randmin8.mesh3x3":    "c43a1740766d3a75",
	"randmin9.mesh3x3":    "9aa39b3457204987",
	"randmin0.mesh4x4":    "f22a0311cbcdf1be",
	"randmin1.mesh4x4":    "fd7f42189499a49b",
	"randmin2.mesh4x4":    "b949ff203052dd86",
	"randmin3.mesh4x4":    "1c4242467385e61a",
	"randmin4.mesh4x4":    "3f5549a4a8da0cf4",
	"randmin5.mesh4x4":    "354b25e24caf96e3",
	"randmin6.mesh4x4":    "b63d844fcf3edf08",
	"randmin7.mesh4x4":    "50f6c19fbadfba30",
	"randmin8.mesh4x4":    "88a934baa6bd4a95",
	"randmin9.mesh4x4":    "31deb201dd19395d",
}
