package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddNodeAndChannel(t *testing.T) {
	net := New("t")
	a := net.AddNode("a")
	b := net.AddNode("b")
	if a != 0 || b != 1 {
		t.Fatalf("node IDs = %d,%d; want 0,1", a, b)
	}
	c := net.AddChannel(a, b, 0, "ab")
	if c != 0 {
		t.Fatalf("channel ID = %d; want 0", c)
	}
	ch := net.Channel(c)
	if ch.Src != a || ch.Dst != b || ch.VC != 0 || ch.Label != "ab" {
		t.Fatalf("channel = %+v", ch)
	}
	if got := net.Out(a); len(got) != 1 || got[0] != c {
		t.Fatalf("Out(a) = %v", got)
	}
	if got := net.In(b); len(got) != 1 || got[0] != c {
		t.Fatalf("In(b) = %v", got)
	}
	if len(net.Out(b)) != 0 || len(net.In(a)) != 0 {
		t.Fatal("unexpected adjacency")
	}
}

func TestAddChannelPanics(t *testing.T) {
	net := New("t")
	a := net.AddNode("a")
	b := net.AddNode("b")
	for _, tc := range []struct {
		name     string
		src, dst NodeID
	}{
		{"self-loop", a, a},
		{"bad src", 99, b},
		{"bad dst", a, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			net.AddChannel(tc.src, tc.dst, 0, "")
		})
	}
}

func TestStronglyConnected(t *testing.T) {
	net := New("t")
	a := net.AddNode("a")
	b := net.AddNode("b")
	c := net.AddNode("c")
	net.AddChannel(a, b, 0, "")
	net.AddChannel(b, c, 0, "")
	if net.StronglyConnected() {
		t.Fatal("line graph should not be strongly connected")
	}
	net.AddChannel(c, a, 0, "")
	if !net.StronglyConnected() {
		t.Fatal("directed 3-cycle should be strongly connected")
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateTooSmall(t *testing.T) {
	net := New("t")
	net.AddNode("only")
	if err := net.Validate(); err == nil {
		t.Fatal("single-node network should fail validation")
	}
}

func TestChannelsBetweenSortsByVC(t *testing.T) {
	net := New("t")
	a := net.AddNode("a")
	b := net.AddNode("b")
	c2 := net.AddChannel(a, b, 2, "v2")
	c0 := net.AddChannel(a, b, 0, "v0")
	c1 := net.AddChannel(a, b, 1, "v1")
	got := net.ChannelsBetween(a, b)
	want := []ChannelID{c0, c1, c2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("ChannelsBetween = %v; want %v", got, want)
	}
}

func TestRingDistances(t *testing.T) {
	uni := NewRing(5, false)
	d := uni.Distances()
	if d[0][1] != 1 || d[1][0] != 4 || d[0][0] != 0 {
		t.Fatalf("unidirectional ring distances wrong: %v", d[0])
	}
	bi := NewRing(5, true)
	db := bi.Distances()
	if db[0][4] != 1 || db[0][2] != 2 {
		t.Fatalf("bidirectional ring distances wrong: %v", db[0])
	}
}

func TestShortestPath(t *testing.T) {
	net := NewRing(6, false)
	p := net.ShortestPath(0, 3)
	if len(p) != 3 {
		t.Fatalf("path length = %d; want 3", len(p))
	}
	if !net.IsPath(0, 3, p) {
		t.Fatal("ShortestPath result fails IsPath")
	}
	if p := net.ShortestPath(2, 2); p != nil {
		t.Fatalf("ShortestPath(v,v) = %v; want nil", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	net := New("t")
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddChannel(a, b, 0, "")
	if p := net.ShortestPath(b, a); p != nil {
		t.Fatalf("expected nil path, got %v", p)
	}
	if d := net.Distances()[b][a]; d != -1 {
		t.Fatalf("Distances()[b][a] = %d; want -1", d)
	}
}

func TestIsPathRejectsBadPaths(t *testing.T) {
	net := NewRing(4, false)
	p := net.ShortestPath(0, 2)
	if net.IsPath(0, 3, p) {
		t.Fatal("IsPath should reject wrong destination")
	}
	if net.IsPath(1, 2, p) {
		t.Fatal("IsPath should reject wrong source")
	}
	if !net.IsPath(1, 1, nil) {
		t.Fatal("empty path from v to v should be valid")
	}
	if net.IsPath(1, 2, nil) {
		t.Fatal("empty path between distinct nodes should be invalid")
	}
	if net.IsPath(0, 2, []ChannelID{99}) {
		t.Fatal("IsPath should reject out-of-range channel")
	}
}

func TestMeshStructure(t *testing.T) {
	g := NewMesh([]int{3, 4}, 1)
	if g.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d; want 12", g.NumNodes())
	}
	// Interior horizontal links: 2*(3*3) vertical 2*(2*4) = wait, count:
	// links per dimension: dim0 has (3-1)*4 adjacent pairs, dim1 has 3*(4-1).
	wantChannels := 2 * ((3-1)*4 + 3*(4-1))
	if g.NumChannels() != wantChannels {
		t.Fatalf("NumChannels = %d; want %d", g.NumChannels(), wantChannels)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Corner node has exactly 2 out-channels.
	corner := g.NodeAt([]int{0, 0})
	if got := len(g.Out(corner)); got != 2 {
		t.Fatalf("corner out-degree = %d; want 2", got)
	}
}

func TestMeshCoordsRoundTrip(t *testing.T) {
	g := NewMesh([]int{3, 4, 2}, 1)
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coords(NodeID(n))
		if g.NodeAt(c) != NodeID(n) {
			t.Fatalf("round trip failed for node %d: coords %v", n, c)
		}
	}
}

// TestGridCoordMatchesCoords: the allocation-free per-dimension accessor
// agrees with the full decoding on every node and dimension of 1-, 2- and
// 3-D meshes and a torus.
func TestGridCoordMatchesCoords(t *testing.T) {
	for _, g := range []*Grid{
		NewMesh([]int{5}, 1),
		NewMesh([]int{4, 3}, 1),
		NewMesh([]int{3, 4, 2}, 2),
		NewTorus([]int{4, 5}, 2),
	} {
		for n := 0; n < g.NumNodes(); n++ {
			c := g.Coords(NodeID(n))
			for d := range g.Dims {
				if got := g.Coord(NodeID(n), d); got != c[d] {
					t.Fatalf("%s: Coord(%d, %d) = %d, Coords = %v", g.Name(), n, d, got, c)
				}
			}
		}
	}
}

func TestTorusWrapLinks(t *testing.T) {
	g := NewTorus([]int{4}, 2)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	// Each node: 2 directions x 2 vcs = 4 out channels.
	wantChannels := 4 * 4
	if g.NumChannels() != wantChannels {
		t.Fatalf("NumChannels = %d; want %d", g.NumChannels(), wantChannels)
	}
	// Wrap link from node 3 in + direction goes to node 0.
	cid, ok := g.Link(3, 0, 0, 1)
	if !ok {
		t.Fatal("missing wrap link")
	}
	if c := g.Channel(cid); c.Dst != 0 || c.VC != 1 {
		t.Fatalf("wrap link = %+v", c)
	}
}

func TestMeshBoundaryHasNoLink(t *testing.T) {
	g := NewMesh([]int{3}, 1)
	if _, ok := g.Link(2, 0, 0, 0); ok {
		t.Fatal("mesh boundary should have no +1 link at the top")
	}
	if _, ok := g.Link(0, 0, 1, 0); ok {
		t.Fatal("mesh boundary should have no -1 link at the bottom")
	}
	if _, ok := g.Link(1, 0, 0, 0); !ok {
		t.Fatal("interior node should have +1 link")
	}
}

func TestHypercube(t *testing.T) {
	h := NewHypercube(3)
	if h.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d; want 8", h.NumNodes())
	}
	if h.NumChannels() != 8*3 {
		t.Fatalf("NumChannels = %d; want 24", h.NumChannels())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d := h.Distances()
	if d[0][7] != 3 || d[0][5] != 2 {
		t.Fatalf("hypercube distances wrong: d[0][7]=%d d[0][5]=%d", d[0][7], d[0][5])
	}
}

func TestStar(t *testing.T) {
	s := NewStar(4)
	if s.NumNodes() != 5 || s.NumChannels() != 8 {
		t.Fatalf("star: %d nodes %d channels", s.NumNodes(), s.NumChannels())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d := s.Distances()
	if d[1][2] != 2 || d[0][3] != 1 {
		t.Fatal("star distances wrong")
	}
}

func TestComplete(t *testing.T) {
	k := NewComplete(4)
	if k.NumChannels() != 12 {
		t.Fatalf("NumChannels = %d; want 12", k.NumChannels())
	}
	for _, row := range k.Distances() {
		for j, v := range row {
			want := 1
			if row[j] == 0 && v == 0 {
				continue
			}
			if v != want {
				t.Fatalf("complete network distance = %d; want 1", v)
			}
		}
	}
}

// Property: on any torus, BFS distance between u and v equals the sum over
// dimensions of the wrap-aware coordinate distance.
func TestTorusDistanceProperty(t *testing.T) {
	g := NewTorus([]int{4, 3}, 1)
	dist := g.Distances()
	f := func(uRaw, vRaw uint8) bool {
		u := NodeID(int(uRaw) % g.NumNodes())
		v := NodeID(int(vRaw) % g.NumNodes())
		cu, cv := g.Coords(u), g.Coords(v)
		want := 0
		for d := range g.Dims {
			delta := cu[d] - cv[d]
			if delta < 0 {
				delta = -delta
			}
			if wrapDelta := g.Dims[d] - delta; wrapDelta < delta {
				delta = wrapDelta
			}
			want += delta
		}
		return dist[u][v] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ShortestPath length always equals the BFS distance, and the path
// is contiguous, for random node pairs on a mesh.
func TestShortestPathMatchesDistanceProperty(t *testing.T) {
	g := NewMesh([]int{4, 4}, 1)
	dist := g.Distances()
	f := func(uRaw, vRaw uint8) bool {
		u := NodeID(int(uRaw) % g.NumNodes())
		v := NodeID(int(vRaw) % g.NumNodes())
		p := g.ShortestPath(u, v)
		if u == v {
			return p == nil
		}
		return len(p) == dist[u][v] && g.IsPath(u, v, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannelString(t *testing.T) {
	net := New("t")
	a := net.AddNode("a")
	b := net.AddNode("")
	labeled := net.AddChannel(a, b, 0, "fancy")
	plain := net.AddChannel(a, b, 0, "")
	vc := net.AddChannel(a, b, 3, "")
	if s := net.Channel(labeled).String(); s != "fancy" {
		t.Fatalf("labeled String = %q", s)
	}
	if s := net.Channel(plain).String(); s != "c1(0->1)" {
		t.Fatalf("plain String = %q", s)
	}
	if s := net.Channel(vc).String(); s != "c2(0->1.v3)" {
		t.Fatalf("vc String = %q", s)
	}
	if s := net.Node(a).String(); s != "a" {
		t.Fatalf("Node String = %q", s)
	}
	if s := net.Node(b).String(); s != "n1" {
		t.Fatalf("unlabeled Node String = %q", s)
	}
}

func TestNetworkDOT(t *testing.T) {
	net := New("t")
	a := net.AddNode("a")
	b := net.AddNode("b")
	net.AddChannel(a, b, 0, "")
	net.AddChannel(b, a, 2, "")
	dot := net.DOT()
	for _, want := range []string{"digraph", "n0 -> n1;", `n1 -> n0 [label="v2"];`, `[label="a"]`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
