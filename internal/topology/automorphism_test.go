package topology_test

// Golden automorphism groups for the paper networks and the standard
// constructions. These pin down the symmetry structure the model
// checker's canonical-state reduction quotients by: Gen(k)'s two-fold
// rotation (swap the M1/M3 and M2/M4 halves of the ring), the full
// rotation group of a directed ring, and — just as load-bearing — the
// networks that must NOT be symmetric (Figure 2's unequal entrants).

import (
	"testing"

	"repro/internal/papernets"
	"repro/internal/topology"
)

// isIdentity reports whether a fixes every node and channel.
func isIdentity(a topology.Automorphism) bool {
	for v, w := range a.Nodes {
		if topology.NodeID(v) != w {
			return false
		}
	}
	for c, d := range a.Chans {
		if topology.ChannelID(c) != d {
			return false
		}
	}
	return true
}

// nodeLabeled returns the node of net labeled label.
func nodeLabeled(t *testing.T, net *topology.Network, label string) topology.NodeID {
	t.Helper()
	for _, nd := range net.Nodes() {
		if nd.Label == label {
			return nd.ID
		}
	}
	t.Fatalf("%s: no node %s", net.Name(), label)
	return -1
}

// addLink adds the channels a->b and b->a on virtual channel 0.
func addLink(net *topology.Network, a, b topology.NodeID) {
	net.AddChannel(a, b, 0, "")
	net.AddChannel(b, a, 0, "")
}

// checkGroup asserts basic well-formedness of an automorphism list:
// identity first, and every element a genuine channel-consistent
// permutation.
func checkGroup(t *testing.T, net *topology.Network, autos []topology.Automorphism) {
	t.Helper()
	if len(autos) == 0 || !isIdentity(autos[0]) {
		t.Fatalf("%s: expected the identity first, got %v", net.Name(), autos)
	}
	for i, a := range autos {
		if len(a.Nodes) != net.NumNodes() || len(a.Chans) != net.NumChannels() {
			t.Fatalf("%s: automorphism %d has wrong arity", net.Name(), i)
		}
		seenN := make(map[topology.NodeID]bool)
		for _, w := range a.Nodes {
			if seenN[w] {
				t.Fatalf("%s: automorphism %d node map not a bijection", net.Name(), i)
			}
			seenN[w] = true
		}
		seenC := make(map[topology.ChannelID]bool)
		for c, d := range a.Chans {
			if seenC[d] {
				t.Fatalf("%s: automorphism %d channel map not a bijection", net.Name(), i)
			}
			seenC[d] = true
			src, dst := net.Channel(topology.ChannelID(c)), net.Channel(d)
			if a.Nodes[src.Src] != dst.Src || a.Nodes[src.Dst] != dst.Dst || src.VC != dst.VC {
				t.Fatalf("%s: automorphism %d maps channel %d (%d->%d vc%d) to %d (%d->%d vc%d): endpoints not preserved",
					net.Name(), i, c, src.Src, src.Dst, src.VC, d, dst.Src, dst.Dst, dst.VC)
			}
		}
	}
}

func groupOf(t *testing.T, net *topology.Network, wantComplete bool) []topology.Automorphism {
	t.Helper()
	autos, complete := net.Automorphisms(0)
	if complete != wantComplete {
		t.Fatalf("%s: complete = %v, want %v", net.Name(), complete, wantComplete)
	}
	checkGroup(t, net, autos)
	return autos
}

// TestAutomorphismsGenK: Figure 1 and every Gen(k) have the dihedral
// group of order 4. The undirected ring (forward arcs plus their reverse
// channels) carries only two structurally marked points: the D = k+2
// entry nodes E2 and E4, whose connector chains hang off them. (The
// D = 2 entries E1/E3 are indistinguishable from plain interior ring
// nodes — their one-hop connector from N* is structurally just another
// hub channel.) E2 and E4 sit diametrically opposite, so the symmetries
// are the identity, the half-turn, and the two reflections through the
// E2–E4 axis. Only the half-turn maps forward ring channels to forward
// ring channels; the reflections swap forward and reverse, which is why
// the scenario-level symmetry filter later keeps just the rotation.
func TestAutomorphismsGenK(t *testing.T) {
	for _, pn := range []*papernets.Net{papernets.Figure1(), papernets.GenK(2), papernets.GenK(3)} {
		net := pn.Network
		autos := groupOf(t, net, true)
		if len(autos) != 4 {
			t.Fatalf("%s: |Aut| = %d, want dihedral order 4", pn.Name, len(autos))
		}
		// Exactly one element is the half-turn: it swaps E1<->E3 and
		// E2<->E4 while preserving ring direction (E1's forward arc
		// channel maps to E3's forward arc channel).
		e := make(map[string]topology.NodeID)
		for _, l := range []string{"E1", "E2", "E3", "E4", "Src", "N*"} {
			e[l] = nodeLabeled(t, net, l)
		}
		rotations := 0
		for _, a := range autos[1:] {
			if a.Nodes[e["Src"]] != e["Src"] || a.Nodes[e["N*"]] != e["N*"] {
				t.Errorf("%s: automorphism moves Src or N*", pn.Name)
			}
			if a.Nodes[e["E1"]] == e["E3"] && a.Nodes[e["E2"]] == e["E4"] &&
				a.Nodes[e["E3"]] == e["E1"] && a.Nodes[e["E4"]] == e["E2"] {
				rotations++
			}
		}
		if rotations != 1 {
			t.Errorf("%s: found %d half-turn elements, want exactly 1", pn.Name, rotations)
		}
	}
}

// TestAutomorphismsFigure2: the two entrants differ (D=3/C=4 vs D=2/C=3),
// so no rotation survives; only the reflection through the single marked
// entry node E1 remains, giving a group of order 2 whose non-identity
// element fixes E1 and reverses the ring.
func TestAutomorphismsFigure2(t *testing.T) {
	net := papernets.Figure2().Network
	autos := groupOf(t, net, true)
	if len(autos) != 2 {
		t.Fatalf("figure2: |Aut| = %d, want 2 (identity + reflection)", len(autos))
	}
	e1 := nodeLabeled(t, net, "E1")
	if autos[1].Nodes[e1] != e1 {
		t.Errorf("figure2: reflection moves E1")
	}
}

// TestAutomorphismsRing: a directed n-ring has exactly the n rotations; a
// bidirectional n-ring has the full dihedral group of order 2n.
func TestAutomorphismsRing(t *testing.T) {
	uni := topology.NewRing(5, false)
	if autos := groupOf(t, uni, true); len(autos) != 5 {
		t.Fatalf("directed 5-ring: |Aut| = %d, want 5 rotations", len(autos))
	}
	bi := topology.NewRing(4, true)
	if autos := groupOf(t, bi, true); len(autos) != 8 {
		t.Fatalf("bidirectional 4-ring: |Aut| = %d, want dihedral order 8", len(autos))
	}
}

// TestAutomorphismsAsymmetric: a bidirectional 3-path would have the
// end-swapping reflection, but doubling one link's multiplicity breaks
// it — the group must collapse to the identity.
func TestAutomorphismsAsymmetric(t *testing.T) {
	net := topology.New("asym")
	a := net.AddNode("a")
	b := net.AddNode("b")
	c := net.AddNode("c")
	addLink(net, a, b)
	addLink(net, b, c)
	net.AddChannel(a, b, 1, "extra") // breaks the a<->c reflection
	autos := groupOf(t, net, true)
	if len(autos) != 1 {
		t.Fatalf("asym: |Aut| = %d, want identity only", len(autos))
	}

	// Sanity-check the construction: without the extra channel the
	// reflection exists.
	sym := topology.New("sym")
	a, b, c = sym.AddNode("a"), sym.AddNode("b"), sym.AddNode("c")
	addLink(sym, a, b)
	addLink(sym, b, c)
	if autos := groupOf(t, sym, true); len(autos) != 2 {
		t.Fatalf("sym: |Aut| = %d, want 2 (identity + reflection)", len(autos))
	}
}

// TestAutomorphismsLimit: asking for fewer elements than the group holds
// truncates and reports incompleteness.
func TestAutomorphismsLimit(t *testing.T) {
	net := topology.NewRing(6, false)
	autos, complete := net.Automorphisms(3)
	if complete {
		t.Fatal("limit 3 on a 6-element group reported complete")
	}
	if len(autos) != 3 {
		t.Fatalf("got %d automorphisms, want 3", len(autos))
	}
	checkGroup(t, net, autos)
}
