package routing

import (
	"fmt"

	"repro/internal/topology"
)

// DimensionOrder returns dimension-order (e-cube/XY) routing on a mesh: a
// message fully corrects dimension 0, then dimension 1, and so on, always on
// virtual channel 0. On a 2-D mesh this is the classic XY algorithm. Its
// channel dependency graph is acyclic, and the algorithm is coherent, so by
// the paper's Corollary 3 it can have no unreachable configurations.
func DimensionOrder(g *topology.Grid) Algorithm {
	if g.Wrap {
		panic("routing: DimensionOrder requires a mesh; use DallySeitzTorus for tori")
	}
	return FromFunc(g.Network, fmt.Sprintf("dor.%s", g.Name()),
		func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) topology.ChannelID {
			for d := range g.Dims {
				a, b := g.Coord(at, d), g.Coord(dst, d)
				if a == b {
					continue
				}
				dir := 0
				if a > b {
					dir = 1
				}
				cid, ok := g.Link(at, d, dir, 0)
				if !ok {
					return topology.None
				}
				return cid
			}
			return topology.None
		})
}

// NegativeFirst returns the oblivious instance of the negative-first turn
// model on a mesh: a message first takes every hop in a negative direction
// (in dimension order), then every positive hop (in dimension order). All
// turns from a positive direction into a negative direction are prohibited,
// which breaks every cycle in the channel dependency graph.
func NegativeFirst(g *topology.Grid) Algorithm {
	if g.Wrap {
		panic("routing: NegativeFirst requires a mesh")
	}
	return FromFunc(g.Network, fmt.Sprintf("negfirst.%s", g.Name()),
		func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) topology.ChannelID {
			// Negative hops first.
			for d := range g.Dims {
				if g.Coord(at, d) > g.Coord(dst, d) {
					cid, ok := g.Link(at, d, 1, 0)
					if !ok {
						return topology.None
					}
					return cid
				}
			}
			for d := range g.Dims {
				if g.Coord(at, d) < g.Coord(dst, d) {
					cid, ok := g.Link(at, d, 0, 0)
					if !ok {
						return topology.None
					}
					return cid
				}
			}
			return topology.None
		})
}

// ECube returns e-cube routing on a binary hypercube: the message corrects
// the lowest differing address bit first. The channel ordering by bit
// position makes the dependency graph acyclic.
func ECube(net *topology.Network) Algorithm {
	return FromFunc(net, fmt.Sprintf("ecube.%s", net.Name()),
		func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) topology.ChannelID {
			diff := uint(at) ^ uint(dst)
			if diff == 0 {
				return topology.None
			}
			bit := 0
			for diff&1 == 0 {
				diff >>= 1
				bit++
			}
			want := topology.NodeID(uint(at) ^ (1 << bit))
			chans := net.ChannelsBetween(at, want)
			if len(chans) == 0 {
				return topology.None
			}
			return chans[0]
		})
}

// DallySeitzTorus returns dimension-order routing on a torus with the
// Dally–Seitz dateline virtual-channel scheme: each directed ring has a
// dateline edge (the wrap-around link); a message travels on virtual
// channel 1 until it has crossed the dateline, and on virtual channel 0
// afterwards. Minimal-direction routing is used in each dimension (ties go
// to the positive direction). The scheme makes the per-ring dependency
// chains acyclic, hence the whole CDG acyclic; the grid must have at least
// two virtual channels per link.
func DallySeitzTorus(g *topology.Grid) Algorithm {
	if !g.Wrap {
		panic("routing: DallySeitzTorus requires a torus")
	}
	if g.VCs < 2 {
		panic("routing: DallySeitzTorus requires at least 2 virtual channels")
	}
	return FromFunc(g.Network, fmt.Sprintf("dallyseitz.%s", g.Name()),
		func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) topology.ChannelID {
			for d := range g.Dims {
				a, b := g.Coord(at, d), g.Coord(dst, d)
				if a == b {
					continue
				}
				k := g.Dims[d]
				fwd := b - a
				if fwd < 0 {
					fwd += k
				}
				dir, steps := 0, fwd
				if back := k - fwd; back < fwd {
					dir, steps = 1, back
				}
				// Does the remaining journey in this dimension still cross
				// the dateline? The + dateline is the wrap edge k-1 -> 0;
				// the - dateline is the wrap edge 0 -> k-1.
				crosses := false
				pos := a
				for s := 0; s < steps; s++ {
					if dir == 0 && pos == k-1 {
						crosses = true
					}
					if dir == 1 && pos == 0 {
						crosses = true
					}
					if dir == 0 {
						pos = (pos + 1) % k
					} else {
						pos = (pos - 1 + k) % k
					}
				}
				vc := 0
				if crosses {
					vc = 1
				}
				cid, ok := g.Link(at, d, dir, vc)
				if !ok {
					return topology.None
				}
				return cid
			}
			return topology.None
		})
}
