package routing

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

func TestValiantComplete(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 1)
	alg := Valiant(g, 7, false)
	if v := CheckComplete(alg); v != nil {
		t.Fatalf("incomplete: %v", v)
	}
	// Valiant is generally nonminimal (it detours via the intermediate).
	if v := CheckMinimal(alg); v == nil {
		t.Fatal("valiant on a 3x3 mesh should be nonminimal for some pair")
	}
}

func TestValiantDeterministicPerSeed(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 1)
	a := Valiant(g, 7, false)
	b := Valiant(g, 7, false)
	c := Valiant(g, 8, false)
	same, diff := true, false
	for s := 0; s < 9; s++ {
		for d := 0; d < 9; d++ {
			if s == d {
				continue
			}
			pa := a.Path(topology.NodeID(s), topology.NodeID(d))
			pb := b.Path(topology.NodeID(s), topology.NodeID(d))
			pc := c.Path(topology.NodeID(s), topology.NodeID(d))
			if !slices.Equal(pa, pb) {
				same = false
			}
			if !slices.Equal(pa, pc) {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("same seed must give the same algorithm")
	}
	if !diff {
		t.Fatal("different seeds should differ somewhere on a 3x3 mesh")
	}
}

func TestValiantVCSplitUsesBothLayers(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 2)
	alg := Valiant(g, 3, true)
	if v := CheckComplete(alg); v != nil {
		t.Fatal(v)
	}
	// Some path must use a VC1 channel (phase two).
	usesVC1 := false
	for s := 0; s < 9 && !usesVC1; s++ {
		for d := 0; d < 9; d++ {
			if s == d {
				continue
			}
			for _, c := range alg.Path(topology.NodeID(s), topology.NodeID(d)) {
				if g.Channel(c).VC == 1 {
					usesVC1 = true
				}
			}
		}
	}
	if !usesVC1 {
		t.Fatal("vc-split valiant never used the phase-two layer")
	}
}

func TestValiantValidation(t *testing.T) {
	tor := topology.NewTorus([]int{3, 3}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on torus")
		}
	}()
	Valiant(tor, 1, false)
}

func TestValiantVCSplitNeedsTwoVCs(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with 1 VC")
		}
	}()
	Valiant(g, 1, true)
}
