package sim

import (
	"testing"

	"repro/internal/topology"
)

// diamond builds a 4-node diamond: a -> {b, c} -> d, with return channel
// d -> a for strong connectivity.
func diamond() (*topology.Network, map[string]topology.ChannelID) {
	net := topology.New("diamond")
	a := net.AddNode("a")
	b := net.AddNode("b")
	c := net.AddNode("c")
	d := net.AddNode("d")
	ch := map[string]topology.ChannelID{
		"ab": net.AddChannel(a, b, 0, "ab"),
		"ac": net.AddChannel(a, c, 0, "ac"),
		"bd": net.AddChannel(b, d, 0, "bd"),
		"cd": net.AddChannel(c, d, 0, "cd"),
		"da": net.AddChannel(d, a, 0, "da"),
	}
	return net, ch
}

// diamondRoute routes a -> d adaptively over both branches.
func diamondRoute(net *topology.Network, ch map[string]topology.ChannelID) RouteFunc {
	return func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		switch net.Node(at).Label {
		case "a":
			return []topology.ChannelID{ch["ab"], ch["ac"]}
		case "b":
			return []topology.ChannelID{ch["bd"]}
		case "c":
			return []topology.ChannelID{ch["cd"]}
		}
		return nil
	}
}

func TestAdaptiveEngineBasics(t *testing.T) {
	net, ch := diamond()
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 3, Route: diamondRoute(net, ch)})
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
	mv := s.Message(id)
	if len(mv.Path) != 2 {
		t.Fatalf("path = %v", mv.Path)
	}
	if !net.IsPath(0, 3, mv.Path) {
		t.Fatalf("materialized path invalid: %v", mv.Path)
	}
}

func TestAdaptiveEngineTakesFreeBranch(t *testing.T) {
	net, ch := diamond()
	s := New(net, Config{})
	// Blocker owns the ab branch.
	blocker := s.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 30, Path: []topology.ChannelID{ch["ab"]}})
	msg := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 2, Route: diamondRoute(net, ch), InjectAt: 1})
	out := s.Run(200)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
	mv := s.Message(msg)
	if mv.Path[0] != ch["ac"] {
		t.Fatalf("adaptive message took %v instead of the free branch", mv.Path)
	}
	if mv.DeliveredAt > 6 {
		t.Fatalf("delayed until %d", mv.DeliveredAt)
	}
	_ = blocker
}

func TestAdaptiveCandidateFiltering(t *testing.T) {
	net, ch := diamond()
	s := New(net, Config{})
	// A route function that returns garbage candidates along with good
	// ones: wrong-source channels, out-of-range IDs.
	route := func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		good := diamondRoute(net, ch)(at, in, dst)
		return append([]topology.ChannelID{99, -1, ch["da"]}, good...)
	}
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 1, Route: route})
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
	for _, c := range s.Message(id).Path {
		if c == ch["da"] || c == 99 {
			t.Fatalf("invalid candidate used: %v", s.Message(id).Path)
		}
	}
}

func TestAdaptiveEncodeIncludesRoute(t *testing.T) {
	net, ch := diamond()
	mk := func(prefer string) *Sim {
		s := New(net, Config{})
		route := func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
			if net.Node(at).Label == "a" {
				return []topology.ChannelID{ch[prefer]}
			}
			return diamondRoute(net, ch)(at, in, dst)
		}
		s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 2, Route: route})
		s.Step()
		return s
	}
	viaB := mk("ab")
	viaC := mk("ac")
	if encOf(viaB) == encOf(viaC) {
		t.Fatal("different materialized routes must encode differently")
	}
}

func TestAdaptiveWaitsForAllCandidatesBlocked(t *testing.T) {
	net, ch := diamond()
	s := New(net, Config{})
	b1 := s.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 30, Path: []topology.ChannelID{ch["ab"]}})
	b2 := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 30, Path: []topology.ChannelID{ch["ac"]}})
	msg := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 1, Route: diamondRoute(net, ch), InjectAt: 1})
	s.Step()
	s.Step()
	ch0, owner, ok := s.WaitsFor(msg)
	if !ok {
		t.Fatal("adaptive message with all candidates blocked should wait")
	}
	if ch0 != ch["ab"] || owner != b1 {
		t.Fatalf("WaitsFor = %v, %v", ch0, owner)
	}
	_ = b2
	// Free one branch: no longer waiting.
	s2 := New(net, Config{})
	s2.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 30, Path: []topology.ChannelID{ch["ab"]}})
	m2 := s2.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 1, Route: diamondRoute(net, ch), InjectAt: 1})
	s2.Step()
	s2.Step()
	if _, _, ok := s2.WaitsFor(m2); ok {
		t.Fatal("message with a free candidate is not blocked")
	}
}

func TestAdaptiveCloneIndependence(t *testing.T) {
	net, ch := diamond()
	s := New(net, Config{})
	s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 3, Route: diamondRoute(net, ch)})
	s.Step()
	c := s.Clone()
	s.Step()
	s.Step()
	if encOf(c) == encOf(s) {
		t.Fatal("clone shares adaptive state with the original")
	}
	if out := c.Run(100); out.Result != ResultDelivered {
		t.Fatalf("clone result = %v", out.Result)
	}
}
