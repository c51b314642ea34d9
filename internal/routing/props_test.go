package routing

import (
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

func TestAsRoutingFuncAcceptsDOR(t *testing.T) {
	g := topology.NewMesh([]int{3, 3}, 1)
	rf, v := AsRoutingFunc(DimensionOrder(g))
	if v != nil {
		t.Fatalf("DOR should be C×N->C: %v", v)
	}
	if rf == nil || len(rf.Inject) == 0 || len(rf.Next) == 0 {
		t.Fatal("materialized function is empty")
	}
	// Spot-check: injection at (0,0) toward (2,2) takes the +x hop first.
	src := g.NodeAt([]int{0, 0})
	dst := g.NodeAt([]int{2, 2})
	cid := rf.Inject[src][dst]
	if c := g.Channel(cid); g.Coords(c.Dst)[0] != 1 {
		t.Fatalf("first hop goes to %v", g.Coords(c.Dst))
	}
}

func TestAsRoutingFuncDetectsSourceDependence(t *testing.T) {
	// Two sources send to the same destination through the same channel but
	// then diverge: that is path-dependent routing, not C×N -> C.
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
	// Same input channel situation (both arrive at m) but different
	// continuations... note a->m and b->m are DIFFERENT channels, so that
	// alone is legal C×N->C. Make the conflict real: route (a,d) and (b,d)
	// both through channel mx... then they cannot diverge. Instead create
	// input-channel dependence that is fine, then a real conflict:
	// (a,d): a->m->x->d, and make a second pair (a2...) reuse channel am
	// with destination d but different output. With a single table entry
	// per (src,dst) the only way to conflict on (in,dst) is two sources
	// sharing a channel: give (d,?) no role; instead route (b,d) via the
	// SAME channel am? b cannot use am. Use a relay: (x,d) direct, and
	// (a,d) via m,x; then R(mx, d) = xd for pair (a,d) and path (m... )
	// Actually construct conflict on injection: impossible per source.
	// Conflict on channel mx: pair (a,d) continues xd; pair (b,d) goes
	// b->m->x->d, continuing xd too. Diverge by sending (b,d) via y:
	// then R uses my, no conflict. True conflict needs same in-channel,
	// same dst, different out. Let pair (a,d) = a->m->x->d and pair
	// (b,d) = b->m->x->m->y->d? x->m exists (xm2), m->y exists. Then
	// R(mx, d) = xd vs xm2: conflict.
	tab.MustSetPath(a, d, []topology.ChannelID{am, mx, xd})
	tab.MustSetPath(b, d, []topology.ChannelID{bm, mx, xm2, my, yd})
	if _, v := AsRoutingFunc(tab); v == nil {
		t.Fatal("expected C×N->C violation")
	}
	// And it is also not input-channel independent.
	if v := CheckInputChannelIndependent(tab); v == nil {
		t.Fatal("expected N×N->C violation")
	}
}

func TestInputChannelIndependentDetectsDependence(t *testing.T) {
	// Paths that continue differently from the same node based on where
	// the message came from are C×N->C but not N×N->C.
	net := topology.NewRing(4, true)
	tab := NewTable(net, "icd")
	if err := tab.FillShortest(); err != nil {
		t.Fatal(err)
	}
	// Pair (0,2): 0->1->2 (clockwise BFS). Pair (3,2): replace the direct
	// hop with 3->0->1->2? Then at node 1 destination 2 both continue with
	// the same channel — no N×N conflict there; at node 0 destination 2
	// both use 0->1 — also consistent. To force dependence: pair (1,3)
	// goes 1->2->3 and pair (0,3) goes 0->3 direct. At node... no shared
	// node. Make pair (0,3) go 0->1->0->... illegal revisit is allowed
	// structurally; simpler: pair (2,0) via 2->1->0 and pair (3,0) via
	// 3->2->1->0 uses same continuation. Force: pair (2,0) := 2->3->0 and
	// pair (1,0) := 1->2->1? revisit. Use pair (1,3): 1->0->3 vs pair
	// (2,3) BFS := 2->3; node 0 in first path continues 0->3; pair (0,3)
	// BFS := 0->3 same. Hmm. Use ring with vc: add second channel pair.
	c01b := net.AddChannel(0, 1, 1, "cw0b")
	// Pair (0,1) uses vc1 channel; pair (3,1) goes 3->0 then the vc0
	// channel 0->1. At node 0 destination 1: out is c01b for source 0 but
	// vc0 channel for source 3 — input-channel dependent (injection vs
	// arrival), still a legal C×N->C function.
	tab.MustSetPath(0, 1, []topology.ChannelID{c01b})
	tab.MustSetPath(3, 1, []topology.ChannelID{
		net.ChannelsBetween(3, 0)[0],
		net.ChannelsBetween(0, 1)[0], // vc0 copy
	})
	if v := CheckInputChannelIndependent(tab); v == nil {
		t.Fatal("expected N×N->C violation")
	}
	if _, v := AsRoutingFunc(tab); v != nil {
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
