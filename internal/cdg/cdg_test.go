package cdg

import (
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// unidirectionalRingShortest builds the classic deadlock-prone example:
// shortest-path routing on a unidirectional ring, whose CDG is a single
// cycle through every channel.
func unidirectionalRingShortest(n int) (*topology.Network, routing.Algorithm) {
	net := topology.NewRing(n, false)
	return net, routing.ShortestBFS(net)
}

func TestRingCDGHasCycle(t *testing.T) {
	net, alg := unidirectionalRingShortest(4)
	g := New(alg)
	if g.Network() != net {
		t.Fatal("network not preserved")
	}
	ok, order := g.Acyclic()
	if ok {
		t.Fatal("unidirectional ring CDG must be cyclic")
	}
	if order != nil {
		t.Fatal("Acyclic should return a nil numbering for a cyclic graph")
	}
	sccs := g.SCCs()
	if len(sccs) != 1 || len(sccs[0]) != 4 {
		t.Fatalf("SCCs = %v; want one component of all 4 channels", sccs)
	}
}

func TestRingCycleEnumeration(t *testing.T) {
	_, alg := unidirectionalRingShortest(5)
	g := New(alg)
	cycles, truncated := g.Cycles(0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v; want exactly one", cycles)
	}
	if len(cycles[0]) != 5 {
		t.Fatalf("cycle length = %d; want 5", len(cycles[0]))
	}
	if cycles[0][0] != 0 {
		t.Fatalf("cycle not canonical: %v", cycles[0])
	}
	// Verify edges exist around the cycle.
	c := cycles[0]
	for i := range c {
		if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
			t.Fatalf("missing dependency %d -> %d", c[i], c[(i+1)%len(c)])
		}
	}
	if g.HasEdge(1, 0) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge reports a dependency the ring does not have")
	}
}

func TestDORMeshCDGAcyclic(t *testing.T) {
	g2 := topology.NewMesh([]int{4, 4}, 1)
	g := New(routing.DimensionOrder(g2))
	ok, order := g.Acyclic()
	if !ok {
		t.Fatal("DOR mesh CDG must be acyclic")
	}
	// The numbering must certify every edge.
	for from := range g.Network().NumChannels() {
		for _, to := range g.Successors(topology.ChannelID(from)) {
			if order[from] >= order[to] {
				t.Fatalf("numbering does not certify edge %d -> %d", from, to)
			}
		}
	}
	if len(g.SCCs()) != 0 {
		t.Fatal("acyclic graph should have no nontrivial SCCs")
	}
	cycles, _ := g.Cycles(0)
	if len(cycles) != 0 {
		t.Fatalf("acyclic graph enumerated cycles: %v", cycles)
	}
}

func TestDallySeitzTorusCDGAcyclic(t *testing.T) {
	for _, dims := range [][]int{{4}, {4, 4}, {3, 3}, {5, 3}} {
		tor := topology.NewTorus(dims, 2)
		g := New(routing.DallySeitzTorus(tor))
		if ok, _ := g.Acyclic(); !ok {
			cycles, _ := g.Cycles(3)
			t.Fatalf("dally-seitz CDG on torus %v has cycles, e.g. %v", dims, cycles)
		}
	}
}

func TestTorusWithoutDatelineHasCycles(t *testing.T) {
	// Plain shortest-path routing on a 1-VC torus ring: cyclic CDG. This is
	// the Dally–Seitz motivating example.
	tor := topology.NewTorus([]int{4}, 1)
	g := New(routing.ShortestBFS(tor.Network))
	if ok, _ := g.Acyclic(); ok {
		t.Fatal("1-VC torus shortest routing should have a cyclic CDG")
	}
}

func TestNegativeFirstCDGAcyclic(t *testing.T) {
	m := topology.NewMesh([]int{3, 3}, 1)
	g := New(routing.NegativeFirst(m))
	if ok, _ := g.Acyclic(); !ok {
		t.Fatal("negative-first CDG must be acyclic")
	}
}

func TestECubeCDGAcyclic(t *testing.T) {
	h := topology.NewHypercube(4)
	g := New(routing.ECube(h))
	if ok, _ := g.Acyclic(); !ok {
		t.Fatal("e-cube CDG must be acyclic")
	}
}

func TestCycleLimitTruncates(t *testing.T) {
	// Shortest-path routing on a bidirectional 5-ring has two cycles (see
	// TestBidirectionalRingShortest), so a limit of one truncates.
	g := New(routing.ShortestBFS(topology.NewRing(5, true)))
	all, trunc := g.Cycles(0)
	if trunc || len(all) != 2 {
		t.Fatalf("Cycles(0) = %d cycles, truncated=%v; want 2, false", len(all), trunc)
	}
	some, trunc := g.Cycles(1)
	if !trunc || len(some) != 1 {
		t.Fatalf("Cycles(1) = %d cycles, truncated=%v", len(some), trunc)
	}
}

func TestCompleteNetworkNoDependencies(t *testing.T) {
	net := topology.NewComplete(4)
	g := New(routing.ShortestBFS(net))
	if g.NumEdges() != 0 {
		t.Fatalf("single-hop routing should induce no dependencies, got %d", g.NumEdges())
	}
	if ok, _ := g.Acyclic(); !ok {
		t.Fatal("empty CDG cannot have cycles")
	}
}

func TestDOTOutput(t *testing.T) {
	_, alg := unidirectionalRingShortest(3)
	g := New(alg)
	dot := g.DOT()
	if !strings.HasPrefix(dot, "digraph") {
		t.Fatalf("DOT = %q", dot)
	}
	if !strings.Contains(dot, "color=red") {
		t.Fatal("cyclic channels should be highlighted")
	}
	if !strings.Contains(dot, "->") {
		t.Fatal("edges missing")
	}
}

func TestCycleContains(t *testing.T) {
	c := Cycle{3, 5, 7}
	if !c.Contains(5) || c.Contains(4) {
		t.Fatal("Contains wrong")
	}
}

func TestCanonicalRotation(t *testing.T) {
	c := Cycle{5, 2, 9}.canonical()
	want := Cycle{2, 9, 5}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("canonical = %v; want %v", c, want)
		}
	}
}

// Shortest-path routing on a bidirectional 5-ring is the classic
// deadlock-prone configuration: although each path is at most 2 hops, the
// paths jointly cover every consecutive channel pair in each direction, so
// the CDG contains exactly two cycles — the full clockwise ring and the
// full counter-clockwise ring.
func TestBidirectionalRingShortest(t *testing.T) {
	net := topology.NewRing(5, true)
	g := New(routing.ShortestBFS(net))
	cycles, trunc := g.Cycles(0)
	if trunc {
		t.Fatal("unexpected truncation")
	}
	if len(cycles) != 2 {
		t.Fatalf("cycles = %v; want the two directional ring cycles", cycles)
	}
	for _, c := range cycles {
		if len(c) != 5 {
			t.Fatalf("cycle %v has length %d; want 5", c, len(c))
		}
	}
}

func TestJohnsonOnDenseComponent(t *testing.T) {
	// Build a custom network whose CDG is a 2-cycle plus a 3-cycle sharing
	// a vertex, via a hand-made table. Simplest: craft the dependency graph
	// directly through paths on a bidirectional triangle with 2 VCs.
	net := topology.New("tri")
	a := net.AddNode("a")
	b := net.AddNode("b")
	c := net.AddNode("c")
	ab := net.AddChannel(a, b, 0, "ab")
	bc := net.AddChannel(b, c, 0, "bc")
	ca := net.AddChannel(c, a, 0, "ca")
	ba := net.AddChannel(b, a, 0, "ba")
	tab := routing.NewTable(net, "dense")
	// Induce ab->bc, bc->ca, ca->ab (3-cycle) and ab->ba? ba's source is b:
	// ab ends at b, ba leaves b: path a->b->a revisits a — SetPath rejects?
	// IsPath allows revisits (it only checks contiguity); use it.
	tab.MustSetPath(a, c, []topology.ChannelID{ab, bc})
	tab.MustSetPath(b, a, []topology.ChannelID{bc, ca})
	tab.MustSetPath(c, b, []topology.ChannelID{ca, ab}) // induces ca->ab
	g := New(tab)
	if ok, _ := g.Acyclic(); ok {
		t.Fatal("expected cycles")
	}
	cycles, _ := g.Cycles(0)
	if len(cycles) != 1 || len(cycles[0]) != 3 {
		t.Fatalf("cycles = %v; want one 3-cycle", cycles)
	}
	_ = ba
}
