package routing

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// nonMinimalTable builds a small network with a deliberately non-minimal,
// non-coherent routing table for exercising the checkers.
func nonMinimalTable(t *testing.T) (*topology.Network, *Table) {
	t.Helper()
	net := topology.NewRing(4, true)
	tab := NewTable(net, "weird")
	if err := tab.FillShortest(); err != nil {
		t.Fatal(err)
	}
	// Replace the 0 -> 1 path with the long way round: 0 -> 3 -> 2 -> 1.
	long := []topology.ChannelID{}
	for _, hop := range [][2]topology.NodeID{{0, 3}, {3, 2}, {2, 1}} {
		long = append(long, net.ChannelsBetween(hop[0], hop[1])[0])
	}
	tab.MustSetPath(0, 1, long)
	return net, tab
}

func TestCheckMinimalDetectsLongPath(t *testing.T) {
	_, tab := nonMinimalTable(t)
	v := CheckMinimal(tab)
	if v == nil {
		t.Fatal("expected minimality violation")
	}
	if v.Src != 0 || v.Dst != 1 {
		t.Fatalf("violation pair = (%d,%d); want (0,1)", v.Src, v.Dst)
	}
	if !strings.Contains(v.Error(), "minimal") {
		t.Fatalf("error text = %q", v.Error())
	}
}

func TestCheckPrefixClosedDetectsViolation(t *testing.T) {
	_, tab := nonMinimalTable(t)
	// 0->1 goes via 3 and 2, but 0->3 is the direct hop, which IS the
	// prefix. 0->2 goes 0->1->2 (BFS) while the long path's prefix to 2 is
	// 0->3->2 — so prefix closure fails at intermediate node 2 of pair
	// (0,1).
	v := CheckPrefixClosed(tab)
	if v == nil {
		t.Fatal("expected prefix-closure violation")
	}
}

func TestCheckSuffixClosedDetectsViolation(t *testing.T) {
	net := topology.NewRing(4, true)
	tab := NewTable(net, "suffix-broken")
	if err := tab.FillShortest(); err != nil {
		t.Fatal(err)
	}
	// Make 1 -> 3 take the path via 0 while 0...wait: make pair (0,2) route
	// 0->1->2 but pair (1,2) route the long way 1->0->3->2. Then the suffix
	// of path(0,2) from node 1 is 1->2, which differs from path(1,2).
	long := []topology.ChannelID{
		net.ChannelsBetween(1, 0)[0],
		net.ChannelsBetween(0, 3)[0],
		net.ChannelsBetween(3, 2)[0],
	}
	tab.MustSetPath(1, 2, long)
	v := CheckSuffixClosed(tab)
	if v == nil {
		t.Fatal("expected suffix-closure violation")
	}
}

func TestCheckNoRevisitDetectsLoop(t *testing.T) {
	net := topology.NewRing(3, true)
	tab := NewTable(net, "loopy")
	if err := tab.FillShortest(); err != nil {
		t.Fatal(err)
	}
	// 0 -> 1 via a detour that revisits 0: 0->2->0->1 is discontiguous?
	// 0->2 (ccw), 2->0 (cw), 0->1 (cw). Contiguous and revisits 0.
	loop := []topology.ChannelID{
		net.ChannelsBetween(0, 2)[0],
		net.ChannelsBetween(2, 0)[0],
		net.ChannelsBetween(0, 1)[0],
	}
	tab.MustSetPath(0, 1, loop)
	if v := CheckNoRevisit(tab); v == nil {
		t.Fatal("expected no-revisit violation")
	}
	if CheckAll(tab).Coherent {
		t.Fatal("revisiting algorithm cannot be coherent")
	}
}

func TestCheckCompleteDetectsMissingPair(t *testing.T) {
	net := topology.NewRing(3, false)
	tab := NewTable(net, "partial")
	tab.MustSetPath(0, 1, net.ShortestPath(0, 1))
	v := CheckComplete(tab)
	if v == nil {
		t.Fatal("expected completeness violation")
	}
}

func TestCheckRoutingFuncAcceptsDOR(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 1)
	if v := CheckRoutingFunc(DimensionOrder(g)); v != nil {
		t.Fatalf("DOR should be C×N->C: %v", v)
	}
}

func TestCheckRoutingFuncDetectsSourceDependence(t *testing.T) {
	net := topology.New("diamond")
	a := net.AddNode("a")
	b := net.AddNode("b")
	m := net.AddNode("m")
	x := net.AddNode("x")
	y := net.AddNode("y")
	d := net.AddNode("d")
	am := net.AddChannel(a, m, 0, "am")
	bm := net.AddChannel(b, m, 0, "bm")
	mx := net.AddChannel(m, x, 0, "mx")
	my := net.AddChannel(m, y, 0, "my")
	xd := net.AddChannel(x, d, 0, "xd")
	yd := net.AddChannel(y, d, 0, "yd")
	// Return channels to keep the network strongly connected.
	net.AddChannel(d, a, 0, "da")
	net.AddChannel(a, b, 0, "ab")
	xm2 := net.AddChannel(x, m, 0, "xm2")
	net.AddChannel(y, m, 0, "ym2")
	net.AddChannel(m, a, 0, "ma")
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	tab := NewTable(net, "pathdep")
	// Pairs (a,d) and (b,d) both leave channel mx toward d, one on xd and
	// the other on xm2, so R(mx, d) would need two values.
	tab.MustSetPath(a, d, []topology.ChannelID{am, mx, xd})
	tab.MustSetPath(b, d, []topology.ChannelID{bm, mx, xm2, my, yd})
	v := CheckRoutingFunc(tab)
	if v == nil {
		t.Fatal("expected C×N->C violation")
	}
	want := fmt.Sprintf("R(channel %d, dest %d) maps to both channel %d and %d", mx, d, xd, xm2)
	if v.Src != b || v.Dst != d || v.Detail != want {
		t.Fatalf("violation = %v; want pair (%d,%d) with %q", v, b, d, want)
	}
	// And it is also not input-channel independent.
	if v := CheckInputChannelIndependent(tab); v == nil {
		t.Fatal("expected N×N->C violation")
	}
}

func TestInputChannelIndependentDetectsDependence(t *testing.T) {
	net := topology.NewRing(4, true)
	tab := NewTable(net, "icd")
	if err := tab.FillShortest(); err != nil {
		t.Fatal(err)
	}
	// At node 0 toward destination 1, pair (0,1) injects on a second
	// virtual channel while pair (3,1) arriving from node 3 takes the VC-0
	// channel: input-channel dependent, yet a legal C×N->C function.
	c01b := net.AddChannel(0, 1, 1, "cw0b")
	tab.MustSetPath(0, 1, []topology.ChannelID{c01b})
	tab.MustSetPath(3, 1, []topology.ChannelID{
		net.ChannelsBetween(3, 0)[0],
		net.ChannelsBetween(0, 1)[0], // vc0 copy
	})
	if v := CheckInputChannelIndependent(tab); v == nil {
		t.Fatal("expected N×N->C violation")
	}
	if v := CheckRoutingFunc(tab); v != nil {
		t.Fatalf("should still be C×N->C: %v", v)
	}
}

func TestCheckAllOnCoherentAlgorithm(t *testing.T) {
	g := topology.NewMesh([]int{3, 2}, 1)
	props := CheckAll(DimensionOrder(g))
	if !props.Coherent || !props.RoutingFuncForm {
		t.Fatalf("props = %v", props)
	}
	s := props.String()
	if !strings.Contains(s, "coherent+") {
		t.Fatalf("String = %q", s)
	}
}

// Property: every RandomMinimal algorithm on a mesh is complete, minimal,
// and realizable as N×N -> C... the latter is NOT guaranteed (different
// pairs can route differently through a node), so only check the guaranteed
// invariants.
func TestRandomMinimalInvariants(t *testing.T) {
	net := topology.NewMesh([]int{3, 3}, 1).Network
	f := func(seed int64) bool {
		alg := RandomMinimal(net, seed%1000)
		return CheckComplete(alg) == nil && CheckMinimal(alg) == nil
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: suffix closure of BFS deterministic routing. BFS parent trees
// are per-source, so BFS routing is generally NOT suffix-closed; but DOR is.
// Check that DOR on random mesh shapes stays coherent.
func TestDORCoherentAcrossShapes(t *testing.T) {
	shapes := [][]int{{2, 2}, {2, 3}, {4, 2}, {3, 3}, {2, 2, 2}, {5}}
	for _, dims := range shapes {
		g := topology.NewMesh(dims, 1)
		if p := CheckAll(DimensionOrder(g)); !p.Coherent {
			t.Fatalf("DOR on %v not coherent: %v", dims, p)
		}
	}
}
