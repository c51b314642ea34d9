// Package routing models oblivious wormhole routing algorithms.
//
// Following Schwiebert (SPAA '97), a routing algorithm R_A (Definition 3)
// maps a (source, destination) node pair to the single channel path a
// message follows, and is implemented at each router by a routing function
// R: C×N -> C (Definition 2) that maps the message's input channel and
// destination to the output channel. The package provides:
//
//   - the Algorithm interface and a general table-based implementation;
//   - library algorithms from the literature (dimension-order routing on
//     meshes, e-cube on hypercubes, Dally–Seitz virtual-channel routing on
//     tori, negative-first turn-model routing, hub routing, BFS shortest
//     path routing);
//   - checkers for the structural properties the paper's theorems hinge on:
//     completeness, minimality, prefix closure (Definition 7), suffix
//     closure (Definition 8), coherence (Definition 9), and realizability
//     as a routing function of the forms C×N -> C and N×N -> C.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Algorithm is an oblivious routing algorithm: one fixed channel path per
// (source, destination) pair (Definition 3).
type Algorithm interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Network returns the interconnection network the algorithm routes on.
	Network() *topology.Network
	// Path returns the channel path a message from src to dst follows.
	// It returns nil when src == dst. A nil return for distinct nodes means
	// the algorithm does not connect the pair (it is incomplete).
	Path(src, dst topology.NodeID) []topology.ChannelID
}

// Table is an explicit path-per-pair oblivious routing algorithm. It is the
// general representation used for the paper's custom constructions and for
// randomly generated algorithms in property tests.
//
// Paths are indexed densely by src*n+dst, where n is the network's node
// count, so a table costs n² slice headers of 24 bytes each (2.3 MB for
// GenK(50)'s 312 nodes) plus the path bytes, which are carved from
// chunked slabs. Path returns views into the slabs with their capacity
// capped, so appending to one never reaches a neighbour's bytes. A
// network that gains nodes after NewTable grows the index at the next
// write.
type Table struct {
	name  string
	net   *topology.Network
	n     int                    // node count the index is sized for
	paths [][]topology.ChannelID // src*n+dst; nil when unset
	slab  []topology.ChannelID   // unused tail of the current chunk
	held  int                    // channels carved so far; sizes the next chunk
	mark  []int                  // per channel: the repeat check's stamp
	stamp int
}

// NewTable returns an empty routing table for net.
func NewTable(net *topology.Network, name string) *Table {
	t := &Table{name: name, net: net}
	t.grow()
	return t
}

// grow resizes the path index to the network's current node count.
func (t *Table) grow() {
	n := t.net.NumNodes()
	if n == t.n {
		return
	}
	paths := make([][]topology.ChannelID, n*n)
	for s := 0; s < t.n; s++ {
		copy(paths[s*n:], t.paths[s*t.n:(s+1)*t.n])
	}
	t.n, t.paths = n, paths
}

// Slab chunks start small, so a 3×3 mesh's table fits one, and double
// with what the table holds up to maxChunk channels.
const minChunk, maxChunk = 256, 1 << 16

// carve returns an empty slice with room for exactly size channels, from
// the current slab chunk or a new one.
func (t *Table) carve(size int) []topology.ChannelID {
	if size > len(t.slab) {
		chunk := min(max(minChunk, t.held), maxChunk)
		t.slab = make([]topology.ChannelID, max(chunk, size))
	}
	p := t.slab[:0:size]
	t.slab = t.slab[size:]
	t.held += size
	return p
}

// repeats stamps every channel of path with a fresh stamp and reports
// whether some channel occurs twice.
func (t *Table) repeats(path []topology.ChannelID) bool {
	if len(t.mark) < t.net.NumChannels() {
		t.mark = make([]int, t.net.NumChannels())
	}
	t.stamp++
	repeated := false
	for _, c := range path {
		repeated = repeated || t.mark[c] == t.stamp
		t.mark[c] = t.stamp
	}
	return repeated
}

// Name implements Algorithm.
func (t *Table) Name() string { return t.name }

// Network implements Algorithm.
func (t *Table) Network() *topology.Network { return t.net }

// Path implements Algorithm. It returns nil for an unset pair and for a
// node outside the network. The returned slice is shared; callers must
// not modify it.
func (t *Table) Path(src, dst topology.NodeID) []topology.ChannelID {
	if src == dst || src < 0 || dst < 0 || int(src) >= t.n || int(dst) >= t.n {
		return nil
	}
	return t.paths[int(src)*t.n+int(dst)]
}

// SetPath records the path from src to dst. It returns an error if the path
// is not a contiguous channel path from src to dst in the network or if it
// holds a channel twice, which no wormhole message can do, so a Table can
// never silently hold an illegal route.
func (t *Table) SetPath(src, dst topology.NodeID, path []topology.ChannelID) error {
	if src == dst {
		return fmt.Errorf("routing: SetPath(%d, %d): source equals destination", src, dst)
	}
	if len(path) == 0 {
		return fmt.Errorf("routing: SetPath(%d, %d): empty path", src, dst)
	}
	if !t.net.IsPath(src, dst, path) {
		return fmt.Errorf("routing: SetPath(%d, %d): %v is not a contiguous path", src, dst, path)
	}
	if t.repeats(path) {
		return fmt.Errorf("routing: SetPath(%d, %d): %v uses a channel twice", src, dst, path)
	}
	t.grow()
	t.paths[int(src)*t.n+int(dst)] = append(t.carve(len(path)), path...)
	return nil
}

// MustSetPath is SetPath that panics on error; intended for hand-built
// constructions whose paths are fixed by the paper.
func (t *Table) MustSetPath(src, dst topology.NodeID, path []topology.ChannelID) {
	if err := t.SetPath(src, dst, path); err != nil {
		panic(err)
	}
}

// FillShortest sets every missing (src, dst) pair to its path in the BFS
// tree from src (topology.Tree), which is the path ShortestPath returns;
// it takes one tree per source that has a missing pair. Existing entries
// are kept. It returns an error if some pair remains unreachable.
func (t *Table) FillShortest() error {
	t.grow()
	var tree topology.Tree
	for s := 0; s < t.n; s++ {
		row := t.paths[s*t.n : (s+1)*t.n]
		if !missing(row, s) {
			continue
		}
		t.net.BFS(topology.NodeID(s), &tree)
		for d := range row {
			if d == s || row[d] != nil {
				continue
			}
			dst := topology.NodeID(d)
			if tree.Depth(dst) < 0 {
				return fmt.Errorf("routing: FillShortest: no path %d -> %d", s, d)
			}
			row[d] = tree.AppendPath(t.carve(tree.Depth(dst)), dst)
		}
	}
	return nil
}

// FillHub sets every missing (src, dst) pair to hub routing: the BFS
// shortest path from src to hub followed by the one from hub to dst, or
// the direct shortest path when either end is the hub. Where the two legs
// would hold one channel twice, which happens only on networks whose
// distances are asymmetric, the pair is routed directly too. It takes one
// BFS tree per source that has a missing pair, so each source's leg to
// the hub is computed once, and one from the hub. Existing entries are
// kept. It returns an error if some pair is unreachable.
func (t *Table) FillHub(hub topology.NodeID) error {
	t.grow()
	var from, out topology.Tree
	t.net.BFS(hub, &out)
	var leg []topology.ChannelID
	cross := make([]bool, t.n)
	for s := 0; s < t.n; s++ {
		row := t.paths[s*t.n : (s+1)*t.n]
		if !missing(row, s) {
			continue
		}
		src := topology.NodeID(s)
		t.net.BFS(src, &from)
		if from.Depth(hub) < 0 {
			return fmt.Errorf("routing: FillHub: hub %d unreachable from %d", hub, s)
		}
		leg = from.AppendPath(leg[:0], hub)
		t.crossings(&out, leg, cross)
		for d := range row {
			if d == s || row[d] != nil {
				continue
			}
			dst := topology.NodeID(d)
			if src != hub && dst != hub && !cross[d] {
				if out.Depth(dst) < 0 {
					return fmt.Errorf("routing: FillHub: %d unreachable from hub %d", d, hub)
				}
				row[d] = out.AppendPath(append(t.carve(len(leg)+out.Depth(dst)), leg...), dst)
				continue
			}
			if from.Depth(dst) < 0 {
				return fmt.Errorf("routing: FillHub: no path %d -> %d", s, d)
			}
			row[d] = from.AppendPath(t.carve(from.Depth(dst)), dst)
		}
	}
	return nil
}

// missing reports whether row, the paths from node s, lacks a pair.
func missing(row [][]topology.ChannelID, s int) bool {
	for d, p := range row {
		if d != s && p == nil {
			return true
		}
	}
	return false
}

// crossings sets cross[v] to whether the hub tree's path to v holds a
// channel of leg. A leg channel can lie on such a path only if it is an
// edge of the hub tree, so most sources need no pass over the tree.
func (t *Table) crossings(hubTree *topology.Tree, leg []topology.ChannelID, cross []bool) {
	clear(cross)
	found := false
	for _, c := range leg {
		if v := t.net.Channel(c).Dst; hubTree.Prev(v) == c {
			cross[v], found = true, true
		}
	}
	if !found {
		return
	}
	// Discovery order visits every node after its tree parent.
	for _, v := range hubTree.Order() {
		if c := hubTree.Prev(v); c != topology.None && cross[t.net.Channel(c).Src] {
			cross[v] = true
		}
	}
}

// funcAlgorithm adapts a per-hop routing rule into an Algorithm by walking
// the rule from each source. It is used by the library algorithms, which
// are most naturally expressed as local decisions.
type funcAlgorithm struct {
	name string
	net  *topology.Network
	// step returns the next channel for a message at `at` heading for `dst`,
	// having arrived on `in` (topology.None at the source).
	step func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) topology.ChannelID
}

// FromFunc builds an Algorithm from a per-hop routing function of the
// Definition 2 form R: C×N -> C (with the current node supplied for the
// injection case). Paths are materialized by iterating the function; a walk
// longer than maxHops hops is treated as undefined (nil path) so a cyclic
// function cannot hang callers.
func FromFunc(net *topology.Network, name string,
	step func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) topology.ChannelID) Algorithm {
	return &funcAlgorithm{name: name, net: net, step: step}
}

// Name implements Algorithm.
func (f *funcAlgorithm) Name() string { return f.name }

// Network implements Algorithm.
func (f *funcAlgorithm) Network() *topology.Network { return f.net }

// maxHopsFactor bounds path materialization: a legal oblivious path in these
// networks never needs more than maxHopsFactor × |C| hops; anything longer
// indicates a livelocked routing function.
const maxHopsFactor = 4

// Path implements Algorithm.
func (f *funcAlgorithm) Path(src, dst topology.NodeID) []topology.ChannelID {
	if src == dst {
		return nil
	}
	limit := maxHopsFactor * (f.net.NumChannels() + 1)
	// Walk into a stack buffer and return one exact-size copy, so a path
	// costs one allocation instead of one per doubling of its length.
	var buf [32]topology.ChannelID
	path := buf[:0]
	at := src
	in := topology.None
	for at != dst {
		if len(path) > limit {
			return nil
		}
		next := f.step(at, in, dst)
		if next == topology.None {
			return nil
		}
		c := f.net.Channel(next)
		if c.Src != at {
			return nil
		}
		path = append(path, next)
		at = c.Dst
		in = next
	}
	return append([]topology.ChannelID(nil), path...)
}
