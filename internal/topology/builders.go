package topology

import "fmt"

// Grid is a k-ary n-dimensional mesh or torus with a fixed number of virtual
// channels per directed physical link. It embeds the underlying Network and
// adds coordinate bookkeeping used by dimension-ordered routing algorithms.
type Grid struct {
	*Network
	Dims []int // radix per dimension, e.g. {4,4} for a 4x4 mesh
	Wrap bool  // true for a torus (wrap-around links present)
	VCs  int   // virtual channels per directed link (>= 1)

	// chan index: [node][dim][dir][vc] -> ChannelID, dir 0 = +, 1 = -.
	links [][][][]ChannelID
}

// NewMesh builds an n-dimensional mesh with the given per-dimension radices
// and vcs virtual channels per directed link. Every adjacent node pair is
// connected by vcs channels in each direction.
func NewMesh(dims []int, vcs int) *Grid {
	return newGrid(dims, vcs, false)
}

// NewTorus builds an n-dimensional torus (mesh plus wrap-around links) with
// vcs virtual channels per directed link. Dally–Seitz torus routing needs
// vcs >= 2 to be deadlock-free.
func NewTorus(dims []int, vcs int) *Grid {
	return newGrid(dims, vcs, true)
}

func newGrid(dims []int, vcs int, wrap bool) *Grid {
	if len(dims) == 0 {
		panic("topology: grid needs at least one dimension")
	}
	total := 1
	for _, d := range dims {
		if d < 2 {
			panic(fmt.Sprintf("topology: grid dimension radix %d < 2", d))
		}
		total *= d
	}
	if vcs < 1 {
		panic("topology: grid needs vcs >= 1")
	}
	kind := "mesh"
	if wrap {
		kind = "torus"
	}
	g := &Grid{
		Network: New(fmt.Sprintf("%s%v.vc%d", kind, dims, vcs)),
		Dims:    append([]int(nil), dims...),
		Wrap:    wrap,
		VCs:     vcs,
	}
	coords := make([]int, len(dims))
	for i := 0; i < total; i++ {
		g.AddNode(fmt.Sprintf("%v", coords))
		incCoords(coords, dims)
	}
	g.links = make([][][][]ChannelID, total)
	for n := range g.links {
		g.links[n] = make([][][]ChannelID, len(dims))
		for d := range g.links[n] {
			g.links[n][d] = make([][]ChannelID, 2)
			for dir := range g.links[n][d] {
				g.links[n][d][dir] = make([]ChannelID, vcs)
				for vc := range g.links[n][d][dir] {
					g.links[n][d][dir][vc] = None
				}
			}
		}
	}
	for n := 0; n < total; n++ {
		c := g.Coords(NodeID(n))
		for d := range dims {
			for dir := 0; dir < 2; dir++ {
				nc := append([]int(nil), c...)
				if dir == 0 {
					nc[d]++
				} else {
					nc[d]--
				}
				wrapped := false
				if nc[d] == dims[d] {
					if !wrap {
						continue
					}
					nc[d] = 0
					wrapped = true
				}
				if nc[d] < 0 {
					if !wrap {
						continue
					}
					nc[d] = dims[d] - 1
					wrapped = true
				}
				// On a 2-node torus ring the "+1" and "-1" neighbors
				// coincide; still create distinct channels so routing in
				// each direction has its own resource.
				to := g.NodeAt(nc)
				for vc := 0; vc < vcs; vc++ {
					sign := "+"
					if dir == 1 {
						sign = "-"
					}
					mark := ""
					if wrapped {
						mark = "w"
					}
					label := fmt.Sprintf("n%d.d%d%s%s.v%d", n, d, sign, mark, vc)
					g.links[n][d][dir][vc] = g.AddChannel(NodeID(n), to, vc, label)
				}
			}
		}
	}
	return g
}

// incCoords advances coords to the next mixed-radix value (row-major: the
// last dimension varies fastest).
func incCoords(coords, dims []int) {
	for d := len(dims) - 1; d >= 0; d-- {
		coords[d]++
		if coords[d] < dims[d] {
			return
		}
		coords[d] = 0
	}
}

// NodeAt returns the node at the given coordinates (row-major encoding).
func (g *Grid) NodeAt(coords []int) NodeID {
	if len(coords) != len(g.Dims) {
		panic(fmt.Sprintf("topology: NodeAt: %d coords for %d dims", len(coords), len(g.Dims)))
	}
	id := 0
	for d, c := range coords {
		if c < 0 || c >= g.Dims[d] {
			panic(fmt.Sprintf("topology: NodeAt: coord %d out of range [0,%d) in dim %d", c, g.Dims[d], d))
		}
		id = id*g.Dims[d] + c
	}
	return NodeID(id)
}

// Coords returns the coordinates of node id (row-major decoding).
func (g *Grid) Coords(id NodeID) []int {
	coords := make([]int, len(g.Dims))
	n := int(id)
	for d := len(g.Dims) - 1; d >= 0; d-- {
		coords[d] = n % g.Dims[d]
		n /= g.Dims[d]
	}
	return coords
}

// Coord returns coordinate d of node id: Coords(id)[d] without building
// the slice, for per-hop routing steps.
func (g *Grid) Coord(id NodeID, d int) int {
	n := int(id)
	for e := len(g.Dims) - 1; e > d; e-- {
		n /= g.Dims[e]
	}
	return n % g.Dims[d]
}

// Link returns the channel leaving node in dimension dim, direction dir
// (0 = increasing coordinate, 1 = decreasing), virtual channel vc, or
// (None, false) when no such link exists (mesh boundary).
func (g *Grid) Link(node NodeID, dim, dir, vc int) (ChannelID, bool) {
	cid := g.links[node][dim][dir][vc]
	return cid, cid != None
}

// NewRing builds a ring of n nodes. If bidirectional, channels run both
// clockwise and counter-clockwise; otherwise only clockwise (i -> i+1 mod n).
func NewRing(n int, bidirectional bool) *Network {
	if n < 2 {
		panic("topology: ring needs n >= 2")
	}
	net := New(fmt.Sprintf("ring%d", n))
	net.AddNodes(n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		net.AddChannel(NodeID(i), NodeID(j), 0, fmt.Sprintf("cw%d", i))
		if bidirectional {
			net.AddChannel(NodeID(j), NodeID(i), 0, fmt.Sprintf("ccw%d", i))
		}
	}
	return net
}

// NewHypercube builds a d-dimensional binary hypercube: 2^d nodes, with
// bidirectional channels between nodes differing in exactly one bit.
func NewHypercube(d int) *Network {
	if d < 1 || d > 20 {
		panic("topology: hypercube dimension must be in [1,20]")
	}
	n := 1 << d
	net := New(fmt.Sprintf("hypercube%d", d))
	net.AddNodes(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				net.AddChannel(NodeID(u), NodeID(v), 0, fmt.Sprintf("h%d.%d+", u, b))
				net.AddChannel(NodeID(v), NodeID(u), 0, fmt.Sprintf("h%d.%d-", u, b))
			}
		}
	}
	return net
}

// NewStar builds a star: node 0 is the hub, nodes 1..leaves are leaves, with
// bidirectional channels between the hub and every leaf.
func NewStar(leaves int) *Network {
	if leaves < 1 {
		panic("topology: star needs at least one leaf")
	}
	net := New(fmt.Sprintf("star%d", leaves))
	net.AddNode("hub")
	for i := 1; i <= leaves; i++ {
		leaf := net.AddNode(fmt.Sprintf("leaf%d", i))
		net.AddChannel(0, leaf, 0, fmt.Sprintf("out%d", i))
		net.AddChannel(leaf, 0, 0, fmt.Sprintf("in%d", i))
	}
	return net
}

// NewComplete builds a complete directed network on n nodes: one channel in
// each direction between every node pair.
func NewComplete(n int) *Network {
	if n < 2 {
		panic("topology: complete network needs n >= 2")
	}
	net := New(fmt.Sprintf("complete%d", n))
	net.AddNodes(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				net.AddChannel(NodeID(u), NodeID(v), 0, fmt.Sprintf("k%d.%d", u, v))
			}
		}
	}
	return net
}
