package topology_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/papernets"
	"repro/internal/topology"
)

// automorphismLimits are the Automorphisms limits the golden hashes: the
// default cap of 64, which the torus and the 4-cube exceed, and a small
// one that truncates every group larger than seven.
var automorphismLimits = []int{0, 7}

// automorphismNets lists the networks TestAutomorphismsGolden hashes.
func automorphismNets() []struct {
	name string
	net  *topology.Network
} {
	var out []struct {
		name string
		net  *topology.Network
	}
	add := func(name string, net *topology.Network) {
		out = append(out, struct {
			name string
			net  *topology.Network
		}{name, net})
	}
	add("figure1", papernets.Figure1().Network)
	add("figure2", papernets.Figure2().Network)
	for l := byte('a'); l <= 'f'; l++ {
		add(fmt.Sprintf("figure3%c", l), papernets.Figure3(l).Network)
	}
	for k := 1; k <= 7; k++ {
		add(fmt.Sprintf("gen%d", k), papernets.GenK(k).Network)
	}
	add("mesh3x3", topology.NewMesh([]int{3, 3}, 1).Network)
	add("mesh4x4", topology.NewMesh([]int{4, 4}, 1).Network)
	add("torus4x4.vc1", topology.NewTorus([]int{4, 4}, 1).Network)
	add("torus4x4.vc2", topology.NewTorus([]int{4, 4}, 2).Network)
	add("hypercube4", topology.NewHypercube(4))
	add("ring6.bi", topology.NewRing(6, true))
	return out
}

// automorphismsDigest hashes Automorphisms(limit) for every limit as
// little-endian words: the limit, the completeness flag, the number of
// automorphisms and each one's node map and channel map, in order.
func automorphismsDigest(net *topology.Network, limits []int) string {
	h := sha256.New()
	var w [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	for _, limit := range limits {
		autos, complete := net.Automorphisms(limit)
		put(limit)
		if complete {
			put(1)
		} else {
			put(0)
		}
		put(len(autos))
		for _, a := range autos {
			for _, v := range a.Nodes {
				put(int(v))
			}
			for _, c := range a.Chans {
				put(int(c))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// automorphismsGolden was recorded with the map-based backtrack.
var automorphismsGolden = map[string]string{
	"figure1":      "1384ac48643bb26f",
	"figure2":      "47ccb6652ddf6d4f",
	"figure3a":     "221534c64ee0d72b",
	"figure3b":     "5d0876f6d9e893f2",
	"figure3c":     "848261b71ff8d336",
	"figure3d":     "145310149a1387e7",
	"figure3e":     "25fd2b62f1287ad7",
	"figure3f":     "a5c9aa447a0e3ce0",
	"gen1":         "1384ac48643bb26f",
	"gen2":         "97b3adbc00378ba3",
	"gen3":         "e9e2f9d0c16dc766",
	"gen4":         "a5c459c409b6e096",
	"gen5":         "36702dccefb6b734",
	"gen6":         "b38c56b3e582e2b9",
	"gen7":         "4ea8f674d1534572",
	"mesh3x3":      "7d9e5c99f92e7687",
	"mesh4x4":      "3ec3859859626324",
	"torus4x4.vc1": "be023d91a71630e6",
	"torus4x4.vc2": "d545f021dbd6d7f0",
	"hypercube4":   "c8c53bec71a353e0",
	"ring6.bi":     "ca6d5a13e5db2e2d",
}

// TestAutomorphismsGolden pins every automorphism, in order, and the
// completeness flag at two limits. The symmetry reduction's permutation
// order, and with it the canonical encodings and the symmetryPermLimit
// cut, depends on that order. Regenerate only for an intended change of
// enumeration, with go test ./internal/topology -run
// TestAutomorphismsGolden -v (the log prints every digest).
func TestAutomorphismsGolden(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range automorphismNets() {
		if seen[c.name] {
			t.Fatalf("duplicate golden name %s", c.name)
		}
		seen[c.name] = true
		got := automorphismsDigest(c.net, automorphismLimits)
		t.Logf("%q: %q,", c.name, got)
		if want := automorphismsGolden[c.name]; got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
	if len(seen) != len(automorphismsGolden) {
		t.Errorf("%d networks hashed, %d digests pinned", len(seen), len(automorphismsGolden))
	}
}
