package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceShortestPath is the per-pair search ShortestPath ran before it
// was built on Tree: a BFS from src that stops when it dequeues dst. The
// tree must give every pair the same path.
func referenceShortestPath(n *Network, src, dst NodeID) []ChannelID {
	if src == dst {
		return nil
	}
	prev := make([]ChannelID, len(n.nodes))
	for i := range prev {
		prev[i] = None
	}
	seen := make([]bool, len(n.nodes))
	seen[src] = true
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			break
		}
		for _, cid := range n.out[u] {
			v := n.channels[cid].Dst
			if !seen[v] {
				seen[v] = true
				prev[v] = cid
				queue = append(queue, v)
			}
		}
	}
	if !seen[dst] {
		return nil
	}
	var rev []ChannelID
	for at := dst; at != src; {
		cid := prev[at]
		rev = append(rev, cid)
		at = n.channels[cid].Src
	}
	slices.Reverse(rev)
	return rev
}

// randomStronglyConnected returns a digraph on n nodes: a directed cycle
// through a random node order, which makes it strongly connected, plus
// extra random channels, parallel ones and other virtual channels
// included, added in random order.
func randomStronglyConnected(rng *rand.Rand, n, extra int) *Network {
	net := New(fmt.Sprintf("random%d", n))
	net.AddNodes(n)
	type arc struct {
		src, dst NodeID
		vc       int
	}
	var arcs []arc
	order := rng.Perm(n)
	for i := range order {
		arcs = append(arcs, arc{NodeID(order[i]), NodeID(order[(i+1)%n]), 0})
	}
	for len(arcs) < n+extra {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			arcs = append(arcs, arc{NodeID(u), NodeID(v), rng.Intn(2)})
		}
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	for _, a := range arcs {
		net.AddChannel(a.src, a.dst, a.vc, "")
	}
	return net
}

// TestTreeMatchesPerPairSearch checks that the path to every node of the
// BFS tree from every source, and so ShortestPath, equals the per-pair
// search's path, on every builder and on seeded random strongly connected
// digraphs. One Tree is reused across networks of different sizes.
func TestTreeMatchesPerPairSearch(t *testing.T) {
	nets := []*Network{
		NewRing(7, true),
		NewRing(7, false),
		NewMesh([]int{4, 5}, 1).Network,
		NewMesh([]int{3, 3}, 2).Network,
		NewTorus([]int{4, 3}, 2).Network,
		NewHypercube(4),
		NewStar(5),
		NewComplete(6),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(14)
		nets = append(nets, randomStronglyConnected(rng, n, rng.Intn(3*n)))
	}
	var tree Tree
	for _, net := range nets {
		for s := range net.nodes {
			src := NodeID(s)
			net.BFS(src, &tree)
			checkOrder(t, net, &tree, src)
			for d := range net.nodes {
				dst := NodeID(d)
				want := referenceShortestPath(net, src, dst)
				got := tree.AppendPath(nil, dst)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: tree path %d -> %d = %v; per-pair search %v", net.Name(), s, d, got, want)
				}
				if sp := net.ShortestPath(src, dst); !slices.Equal(sp, want) {
					t.Fatalf("%s: ShortestPath(%d, %d) = %v; per-pair search %v", net.Name(), s, d, sp, want)
				}
				if tree.Depth(dst) != len(want) {
					t.Fatalf("%s: Depth(%d) from %d = %d; want %d", net.Name(), d, s, tree.Depth(dst), len(want))
				}
				if len(want) > 0 && tree.Prev(dst) != want[len(want)-1] {
					t.Fatalf("%s: Prev(%d) from %d = %d; want %d", net.Name(), d, s, tree.Prev(dst), want[len(want)-1])
				}
			}
		}
	}
}

// checkOrder checks that the tree's discovery order starts at the source,
// holds every reachable node once and puts each after its tree parent.
func checkOrder(t *testing.T, net *Network, tree *Tree, src NodeID) {
	t.Helper()
	order := tree.Order()
	if len(order) == 0 || order[0] != src {
		t.Fatalf("%s: order from %d = %v; must start at the source", net.Name(), src, order)
	}
	pos := make([]int, len(net.nodes))
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range order {
		if pos[v] >= 0 {
			t.Fatalf("%s: order from %d holds %d twice", net.Name(), src, v)
		}
		pos[v] = i
		if c := tree.Prev(v); c != None && pos[net.channels[c].Src] < 0 {
			t.Fatalf("%s: order from %d puts %d before its parent", net.Name(), src, v)
		}
	}
	for v := range net.nodes {
		if (pos[v] >= 0) != (tree.Depth(NodeID(v)) >= 0) {
			t.Fatalf("%s: order from %d and depth disagree on %d", net.Name(), src, v)
		}
	}
}

// TestTreeUnreachable checks the tree's answers for a node the source
// cannot reach and for the source itself.
func TestTreeUnreachable(t *testing.T) {
	net := New("oneway")
	a, b := net.AddNode("a"), net.AddNode("b")
	net.AddChannel(a, b, 0, "")
	var tree Tree
	net.BFS(b, &tree)
	if tree.Depth(a) != -1 || tree.Prev(a) != None {
		t.Fatalf("unreachable node: depth %d prev %d; want -1, None", tree.Depth(a), tree.Prev(a))
	}
	if tree.Depth(b) != 0 || tree.Prev(b) != None {
		t.Fatalf("source: depth %d prev %d; want 0, None", tree.Depth(b), tree.Prev(b))
	}
	buf := []ChannelID{7}
	if got := tree.AppendPath(buf, a); !slices.Equal(got, buf) {
		t.Fatalf("AppendPath to an unreachable node = %v; want %v", got, buf)
	}
}
