package routing

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

func TestTableSetPathValidation(t *testing.T) {
	net := topology.NewRing(4, false)
	tab := NewTable(net, "t")
	good := net.ShortestPath(0, 2)
	if err := tab.SetPath(0, 2, good); err != nil {
		t.Fatalf("SetPath valid: %v", err)
	}
	if err := tab.SetPath(0, 0, nil); err == nil {
		t.Fatal("SetPath(v,v) should fail")
	}
	if err := tab.SetPath(0, 2, nil); err == nil {
		t.Fatal("SetPath empty should fail")
	}
	if err := tab.SetPath(1, 2, good); err == nil {
		t.Fatal("SetPath discontiguous should fail")
	}
	// cw0 cw1 cw2 cw3 cw0: 0 -> 1 -> 2 -> 3 -> 0 -> 1 holds cw0 twice.
	if err := tab.SetPath(0, 1, []topology.ChannelID{0, 1, 2, 3, 0}); err == nil {
		t.Fatal("SetPath holding a channel twice should fail")
	}
	if tab.Path(0, 1) != nil {
		t.Fatal("a rejected path must not be stored")
	}
	got := tab.Path(0, 2)
	if len(got) != 2 {
		t.Fatalf("Path = %v", got)
	}
	if tab.Path(0, 0) != nil {
		t.Fatal("Path(v,v) should be nil")
	}
	if tab.Path(2, 0) != nil {
		t.Fatal("unset pair should be nil")
	}
	for _, pair := range [][2]topology.NodeID{{-1, 2}, {0, -1}, {4, 2}, {0, 4}, {9, 9}} {
		if p := tab.Path(pair[0], pair[1]); p != nil {
			t.Fatalf("Path(%d, %d) = %v; want nil for a node outside the network", pair[0], pair[1], p)
		}
	}
}

func TestTablePathIsolatedFromCaller(t *testing.T) {
	net := topology.NewRing(4, false)
	tab := NewTable(net, "t")
	p := net.ShortestPath(0, 2)
	tab.MustSetPath(0, 2, p)
	p[0] = 99 // mutate the caller's slice
	if tab.Path(0, 2)[0] == 99 {
		t.Fatal("SetPath must copy the path")
	}
}

func TestFillShortestCompletes(t *testing.T) {
	net := topology.NewRing(5, true)
	tab := NewTable(net, "t")
	if err := tab.FillShortest(); err != nil {
		t.Fatal(err)
	}
	if v := CheckComplete(tab); v != nil {
		t.Fatalf("filled table incomplete: %v", v)
	}
	if v := CheckMinimal(tab); v != nil {
		t.Fatalf("filled table not minimal: %v", v)
	}
}

func TestDimensionOrderProperties(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 1)
	alg := DimensionOrder(g)
	props := CheckAll(alg)
	if !props.Complete || !props.Minimal || !props.Coherent || !props.InputChannelIndependent {
		t.Fatalf("DOR properties = %v (violations %v)", props, props.Violations)
	}
}

func TestDimensionOrderPathShape(t *testing.T) {
	g := topology.NewMesh([]int{4, 4}, 1)
	alg := DimensionOrder(g)
	src := g.NodeAt([]int{0, 3})
	dst := g.NodeAt([]int{2, 1})
	p := alg.Path(src, dst)
	if len(p) != 4 {
		t.Fatalf("path length = %d; want 4", len(p))
	}
	// Dimension 0 must be fully corrected before dimension 1 moves.
	nodes := pathNodes(t, g.Network, p)
	sawDim1 := false
	for i := 1; i < len(nodes); i++ {
		prev, cur := g.Coords(nodes[i-1]), g.Coords(nodes[i])
		if prev[0] != cur[0] {
			if sawDim1 {
				t.Fatal("dimension 0 hop after dimension 1 hop")
			}
		} else {
			sawDim1 = true
		}
	}
}

func TestNegativeFirstProperties(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 1)
	alg := NegativeFirst(g)
	props := CheckAll(alg)
	if !props.Complete || !props.Minimal {
		t.Fatalf("negative-first should be complete and minimal: %v", props.Violations)
	}
	if !props.InputChannelIndependent {
		t.Fatal("negative-first is a function of (node, dst) only")
	}
	// Path from (0,0) to (2,2) has no negative hops; from (2,2) to (0,0)
	// all hops are negative.
	p := alg.Path(g.NodeAt([]int{0, 2}), g.NodeAt([]int{2, 0}))
	nodes := pathNodes(t, g.Network, p)
	// First hops must be the dimension-1 negative moves.
	c0 := g.Coords(nodes[0])
	c1 := g.Coords(nodes[1])
	if !(c1[1] == c0[1]-1) {
		t.Fatalf("negative-first should take the negative dim-1 hop first: %v -> %v", c0, c1)
	}
}

func TestECubeProperties(t *testing.T) {
	h := topology.NewHypercube(3)
	alg := ECube(h)
	props := CheckAll(alg)
	if !props.Complete || !props.Minimal || !props.Coherent {
		t.Fatalf("e-cube properties = %v (violations %v)", props, props.Violations)
	}
	p := alg.Path(0, 7)
	if len(p) != 3 {
		t.Fatalf("e-cube path 0->7 length = %d; want 3", len(p))
	}
	// Lowest bit first: 0 -> 1 -> 3 -> 7.
	nodes := pathNodes(t, h, p)
	want := []topology.NodeID{0, 1, 3, 7}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("e-cube path nodes = %v; want %v", nodes, want)
		}
	}
}

func TestDallySeitzTorusProperties(t *testing.T) {
	g := topology.NewTorus([]int{4, 4}, 2)
	alg := DallySeitzTorus(g)
	props := CheckAll(alg)
	if !props.Complete || !props.Minimal {
		t.Fatalf("dally-seitz should be complete and minimal: %v", props.Violations)
	}
	// Dateline routing picks the virtual channel from the destination, so a
	// prefix of a wrapping path differs from the direct path to the same
	// intermediate node (VC1 vs VC0): the algorithm is NOT prefix-closed
	// and hence not coherent — but it IS suffix-closed, which is the
	// property Corollary 2 needs.
	if props.PrefixClosed {
		t.Fatal("dally-seitz dateline routing should not be prefix-closed")
	}
	if !props.SuffixClosed {
		t.Fatalf("dally-seitz should be suffix-closed: %v", props.Violations)
	}
	if !props.NoRevisit {
		t.Fatalf("dally-seitz should never revisit a node: %v", props.Violations)
	}
}

func TestDallySeitzDatelineVCs(t *testing.T) {
	g := topology.NewTorus([]int{4}, 2)
	alg := DallySeitzTorus(g)
	// 3 -> 1 wraps through the dateline 3->0: first hop VC1, second hop VC0.
	p := alg.Path(3, 1)
	if len(p) != 2 {
		t.Fatalf("path 3->1 length = %d; want 2", len(p))
	}
	if vc := g.Channel(p[0]).VC; vc != 1 {
		t.Fatalf("wrap hop VC = %d; want 1", vc)
	}
	if vc := g.Channel(p[1]).VC; vc != 0 {
		t.Fatalf("post-wrap hop VC = %d; want 0", vc)
	}
	// 0 -> 1 does not wrap: VC0 all the way.
	p = alg.Path(0, 1)
	if vc := g.Channel(p[0]).VC; vc != 0 {
		t.Fatalf("non-wrap hop VC = %d; want 0", vc)
	}
}

func TestHubRouting(t *testing.T) {
	net := topology.NewStar(4)
	alg := Hub(net, 0)
	props := CheckAll(alg)
	if !props.Complete {
		t.Fatalf("hub routing incomplete: %v", props.Violations)
	}
	p := alg.Path(1, 2)
	nodes := pathNodes(t, net, p)
	if len(nodes) != 3 || nodes[1] != 0 {
		t.Fatalf("leaf-to-leaf path should pass the hub: %v", nodes)
	}
	// Leaf -> hub is direct.
	if p := alg.Path(1, 0); len(p) != 1 {
		t.Fatalf("leaf->hub path = %v", p)
	}
}

func TestHubRoutingOnRing(t *testing.T) {
	net := topology.NewRing(5, true)
	alg := Hub(net, 2)
	if v := CheckComplete(alg); v != nil {
		t.Fatal(v)
	}
	// Path 0 -> 4 must route via node 2 even though 0-4 are adjacent.
	nodes := pathNodes(t, net, alg.Path(0, 4))
	via := false
	for _, n := range nodes[1 : len(nodes)-1] {
		if n == 2 {
			via = true
		}
	}
	if !via {
		t.Fatalf("hub path should pass node 2: %v", nodes)
	}
	// Hub routing on a ring is not minimal.
	if v := CheckMinimal(alg); v == nil {
		t.Fatal("hub routing on a ring should not be minimal")
	}
}

func TestShortestBFSComplete(t *testing.T) {
	net := topology.NewHypercube(3)
	alg := ShortestBFS(net)
	props := CheckAll(alg)
	if !props.Complete || !props.Minimal {
		t.Fatalf("BFS routing properties: %v", props.Violations)
	}
}

func TestRandomMinimalDeterministicAndMinimal(t *testing.T) {
	net := topology.NewMesh([]int{3, 3}, 1).Network
	a := RandomMinimal(net, 42)
	b := RandomMinimal(net, 42)
	c := RandomMinimal(net, 43)
	if v := CheckMinimal(a); v != nil {
		t.Fatalf("random minimal not minimal: %v", v)
	}
	same := true
	differs := false
	for s := 0; s < net.NumNodes(); s++ {
		for d := 0; d < net.NumNodes(); d++ {
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
				differs = true
			}
		}
	}
	if !same {
		t.Fatal("same seed should give identical algorithms")
	}
	if !differs {
		t.Fatal("different seeds should give different algorithms on a 3x3 mesh")
	}
}

func TestFromFuncLivelockGuard(t *testing.T) {
	net := topology.NewRing(3, false)
	// A pathological rule that never reaches destination 0 from 1: it
	// always forwards clockwise, passing the destination forever is
	// impossible on a ring (it must arrive), so instead route to a channel
	// that exists but loops: always take the clockwise channel even at the
	// destination check level. Simplest livelock: target unreachable rule
	// that returns a wrong-source channel.
	bad := FromFunc(net, "bad", func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) topology.ChannelID {
		return net.Out(at)[0] // never terminates guard exercised below
	})
	// From 1 to 0 the rule keeps circling: guard must kick in via the
	// at != dst loop termination... it terminates when passing through 0.
	if p := bad.Path(1, 0); p == nil {
		t.Fatal("circling rule reaches the destination on a ring")
	}
	// A rule that returns a channel not leaving the current node is
	// rejected.
	wrong := FromFunc(net, "wrong", func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) topology.ChannelID {
		return net.Out((at + 1) % 3)[0]
	})
	if p := wrong.Path(0, 2); p != nil {
		t.Fatalf("rule emitting non-local channels should yield nil, got %v", p)
	}
	// A rule that ping-pongs forever without reaching dst trips the hop
	// bound.
	bi := topology.NewRing(4, true)
	pingpong := FromFunc(bi, "pingpong", func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) topology.ChannelID {
		// Bounce between nodes 0 and 1 forever.
		if at == 0 {
			return bi.ChannelsBetween(0, 1)[0]
		}
		return bi.ChannelsBetween(at, at-1)[0]
	})
	if p := pingpong.Path(0, 3); p != nil {
		t.Fatalf("livelocking rule should yield nil, got %v", p)
	}
}

// pathNodes returns the nodes a contiguous channel path visits, from its
// first channel's source on, and fails the test on a discontiguous path.
func pathNodes(t *testing.T, net *topology.Network, p []topology.ChannelID) []topology.NodeID {
	t.Helper()
	if len(p) == 0 {
		return nil
	}
	nodes := []topology.NodeID{net.Channel(p[0]).Src}
	for i, cid := range p {
		c := net.Channel(cid)
		if c.Src != nodes[i] {
			t.Fatalf("path %v is discontiguous at index %d", p, i)
		}
		nodes = append(nodes, c.Dst)
	}
	return nodes
}
