package routing

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

func TestTableSetPathAfterAddNode(t *testing.T) {
	net := topology.NewRing(3, false)
	tab := NewTable(net, "t")
	tab.MustSetPath(0, 2, []topology.ChannelID{0, 1})
	// Grow the network after NewTable: a spur 2 <-> x.
	x := net.AddNode("x")
	in := net.AddChannel(2, x, 0, "")
	out := net.AddChannel(x, 2, 0, "")
	if p := tab.Path(0, x); p != nil {
		t.Fatalf("Path to a node added after the last write = %v; want nil", p)
	}
	tab.MustSetPath(0, x, []topology.ChannelID{0, 1, in})
	tab.MustSetPath(x, 0, []topology.ChannelID{out, 2})
	if got := tab.Path(0, 2); !slices.Equal(got, []topology.ChannelID{0, 1}) {
		t.Fatalf("path set before the growth = %v", got)
	}
	if got := tab.Path(0, x); !slices.Equal(got, []topology.ChannelID{0, 1, in}) {
		t.Fatalf("Path(0, x) = %v", got)
	}
	if got := tab.Path(x, 0); !slices.Equal(got, []topology.ChannelID{out, 2}) {
		t.Fatalf("Path(x, 0) = %v", got)
	}
	if err := tab.FillShortest(); err != nil {
		t.Fatal(err)
	}
	if v := CheckComplete(tab); v != nil {
		t.Fatalf("filled grown table incomplete: %v", v)
	}
}

func TestTablePathAppendIsolated(t *testing.T) {
	net := topology.NewMesh([]int{3, 3}, 1).Network
	tab := ShortestBFS(net).(*Table)
	snapshot := map[[2]topology.NodeID][]topology.ChannelID{}
	n := net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := topology.NodeID(s), topology.NodeID(d)
			snapshot[[2]topology.NodeID{src, dst}] = slices.Clone(tab.Path(src, dst))
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			p := tab.Path(topology.NodeID(s), topology.NodeID(d))
			if cap(p) != len(p) {
				t.Fatalf("Path(%d, %d) has capacity %d beyond its length %d", s, d, cap(p), len(p))
			}
			_ = append(p, 99, 99, 99)
		}
	}
	for pair, want := range snapshot {
		if got := tab.Path(pair[0], pair[1]); !slices.Equal(got, want) {
			t.Fatalf("Path%v = %v after appends; want %v", pair, got, want)
		}
	}
}

// refHub is the per-pair definition of hub routing: the two BFS legs,
// or the direct BFS path when an end is the hub or the legs share a
// channel.
func refHub(net *topology.Network, hub, src, dst topology.NodeID) []topology.ChannelID {
	if src == dst {
		return nil
	}
	if src == hub || dst == hub {
		return net.ShortestPath(src, dst)
	}
	path := append(net.ShortestPath(src, hub), net.ShortestPath(hub, dst)...)
	seen := map[topology.ChannelID]bool{}
	for _, c := range path {
		if seen[c] {
			return net.ShortestPath(src, dst)
		}
		seen[c] = true
	}
	return path
}

// TestFillByTreeMatchesPerPair checks that FillShortest and FillHub, which
// take one BFS tree per source, give every pair the path of the per-pair
// definitions built on ShortestPath.
func TestFillByTreeMatchesPerPair(t *testing.T) {
	nets := []*topology.Network{
		topology.NewRing(6, true),
		topology.NewRing(6, false),
		topology.NewMesh([]int{3, 4}, 1).Network,
		topology.NewTorus([]int{3, 3}, 2).Network,
		topology.NewHypercube(3),
		topology.NewStar(4),
		topology.NewComplete(5),
	}
	for _, net := range nets {
		n := net.NumNodes()
		bfs := ShortestBFS(net)
		hubs := []topology.NodeID{0, topology.NodeID(n / 2), topology.NodeID(n - 1)}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				src, dst := topology.NodeID(s), topology.NodeID(d)
				if got, want := bfs.Path(src, dst), net.ShortestPath(src, dst); !slices.Equal(got, want) {
					t.Fatalf("%s: FillShortest %d -> %d = %v; want %v", net.Name(), s, d, got, want)
				}
			}
		}
		for _, hub := range hubs {
			alg := Hub(net, hub)
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					src, dst := topology.NodeID(s), topology.NodeID(d)
					if got, want := alg.Path(src, dst), refHub(net, hub, src, dst); !slices.Equal(got, want) {
						t.Fatalf("%s: Hub(%d) %d -> %d = %v; want %v", net.Name(), hub, s, d, got, want)
					}
				}
			}
		}
	}
}

// TestFillKeepsExistingEntries checks that both fills leave a pair that
// was already set alone.
func TestFillKeepsExistingEntries(t *testing.T) {
	net := topology.NewRing(5, true)
	long := []topology.ChannelID{}
	for i := 0; i < 3; i++ {
		long = append(long, net.ChannelsBetween(topology.NodeID(i), topology.NodeID(i+1))[0])
	}
	for name, fill := range map[string]func(*Table) error{
		"FillShortest": (*Table).FillShortest,
		"FillHub":      func(t *Table) error { return t.FillHub(4) },
	} {
		tab := NewTable(net, "t")
		tab.MustSetPath(0, 3, long)
		if err := fill(tab); err != nil {
			t.Fatal(err)
		}
		if got := tab.Path(0, 3); !slices.Equal(got, long) {
			t.Fatalf("%s replaced a set path: %v; want %v", name, got, long)
		}
		if v := CheckComplete(tab); v != nil {
			t.Fatalf("%s: %v", name, v)
		}
	}
}

func TestFillReportsUnreachablePair(t *testing.T) {
	net := topology.New("oneway")
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddChannel(a, b, 0, "")
	if err := NewTable(net, "t").FillShortest(); err == nil {
		t.Fatal("FillShortest must fail when a pair is unreachable")
	}
	for _, hub := range []topology.NodeID{a, b} {
		if err := NewTable(net, "t").FillHub(hub); err == nil {
			t.Fatalf("FillHub(%d) must fail when a pair is unreachable", hub)
		}
	}
}
