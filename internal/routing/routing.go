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
type Table struct {
	name  string
	net   *topology.Network
	paths map[pairKey][]topology.ChannelID
}

type pairKey struct{ src, dst topology.NodeID }

// NewTable returns an empty routing table for net.
func NewTable(net *topology.Network, name string) *Table {
	return &Table{name: name, net: net, paths: make(map[pairKey][]topology.ChannelID)}
}

// Name implements Algorithm.
func (t *Table) Name() string { return t.name }

// Network implements Algorithm.
func (t *Table) Network() *topology.Network { return t.net }

// Path implements Algorithm. The returned slice is shared; callers must not
// modify it.
func (t *Table) Path(src, dst topology.NodeID) []topology.ChannelID {
	if src == dst {
		return nil
	}
	return t.paths[pairKey{src, dst}]
}

// SetPath records the path from src to dst. It returns an error if the path
// is not a contiguous channel path from src to dst in the network, so a
// Table can never silently hold an illegal route.
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
	t.paths[pairKey{src, dst}] = append([]topology.ChannelID(nil), path...)
	return nil
}

// MustSetPath is SetPath that panics on error; intended for hand-built
// constructions whose paths are fixed by the paper.
func (t *Table) MustSetPath(src, dst topology.NodeID, path []topology.ChannelID) {
	if err := t.SetPath(src, dst, path); err != nil {
		panic(err)
	}
}

// FillShortest sets every missing (src, dst) pair to one BFS shortest path.
// Existing entries are kept. It returns an error if some pair remains
// unreachable.
func (t *Table) FillShortest() error {
	n := t.net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			key := pairKey{topology.NodeID(s), topology.NodeID(d)}
			if _, ok := t.paths[key]; ok {
				continue
			}
			p := t.net.ShortestPath(key.src, key.dst)
			if p == nil {
				return fmt.Errorf("routing: FillShortest: no path %d -> %d", s, d)
			}
			t.paths[key] = p
		}
	}
	return nil
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

// Materialize copies every pair's path of alg into a Table, which makes
// repeated Path calls cheap and the algorithm mutable. It returns an error
// if alg is incomplete.
func Materialize(alg Algorithm) (*Table, error) {
	net := alg.Network()
	t := NewTable(net, alg.Name())
	n := net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := alg.Path(topology.NodeID(s), topology.NodeID(d))
			if p == nil {
				return nil, fmt.Errorf("routing: Materialize(%s): no path %d -> %d", alg.Name(), s, d)
			}
			if err := t.SetPath(topology.NodeID(s), topology.NodeID(d), p); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
