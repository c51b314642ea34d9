// Package adaptive provides adaptive wormhole routing algorithms of the
// form R: C×N -> P(C), the class the paper contrasts with oblivious
// routing and points to as future work ("a more interesting extension of
// this work would be to apply these techniques to ... adaptive routing").
//
// The package includes:
//
//   - FullyAdaptiveMinimal: every minimal-direction channel is a
//     candidate. With a single virtual channel this is the classic
//     deadlock-prone algorithm (Dally & Seitz's motivation).
//   - WestFirst: the turn-model adaptive algorithm on 2-D meshes — all
//     westward hops first, then adaptive among the remaining minimal
//     directions. Deadlock-free: the prohibited turns break every cycle.
//   - DuatoMesh: Duato's protocol on a 2-VC mesh — fully adaptive minimal
//     routing on the adaptive virtual channels, with dimension-order
//     routing on the escape virtual channels always offered as a
//     fallback. Deadlock-free although its channel *dependency* structure
//     is cyclic — the adaptive analogue of the paper's headline
//     phenomenon, established by Duato's sufficiency theorem.
//
// Algorithms produce sim.RouteFunc values for the flit-level simulator.
// The simulator's candidate selection is adversar-independent (lowest
// granted channel); deadlock detection by quiescence remains exact.
package adaptive

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Algorithm is an adaptive routing algorithm: a candidate-set routing
// function plus metadata.
type Algorithm struct {
	Name  string
	Net   *topology.Network
	Route sim.RouteFunc
}

// FullyAdaptiveMinimal routes along any channel that reduces the remaining
// distance, on any virtual channel. On meshes and tori with one virtual
// channel this is deadlock-prone.
func FullyAdaptiveMinimal(g *topology.Grid) Algorithm {
	route := func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		var out []topology.ChannelID
		for d := range g.Dims {
			a, b := g.Coord(at, d), g.Coord(dst, d)
			for dir := 0; dir < 2; dir++ {
				if !reduces(g, a, b, d, dir) {
					continue
				}
				for vc := 0; vc < g.VCs; vc++ {
					if cid, ok := g.Link(at, d, dir, vc); ok {
						out = append(out, cid)
					}
				}
			}
		}
		return out
	}
	return Algorithm{Name: fmt.Sprintf("fulladaptive.%s", g.Name()), Net: g.Network, Route: route}
}

// reduces reports whether one hop in (dim, dir) shrinks the remaining
// distance in that dimension (wrap-aware on tori; ties allow both
// directions).
func reduces(g *topology.Grid, a, b, dim, dir int) bool {
	if a == b {
		return false
	}
	k := g.Dims[dim]
	if !g.Wrap {
		if dir == 0 {
			return a < b
		}
		return a > b
	}
	fwd := (b - a + k) % k
	back := (a - b + k) % k
	if dir == 0 {
		return fwd <= back && fwd > 0
	}
	return back <= fwd && back > 0
}

// WestFirst is the adaptive west-first turn-model algorithm on a 2-D mesh:
// a message first makes all its hops in the negative direction of
// dimension 1 ("west"), with no alternative; afterwards it may route
// adaptively among the remaining minimal directions (east, and either
// direction of dimension 0). Prohibiting the two turns into west breaks
// every cycle, so the algorithm is deadlock-free with a single virtual
// channel.
func WestFirst(g *topology.Grid) Algorithm {
	if g.Wrap || len(g.Dims) != 2 {
		panic("adaptive: WestFirst requires a 2-D mesh")
	}
	route := func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		a0, b0 := g.Coord(at, 0), g.Coord(dst, 0)
		a1, b1 := g.Coord(at, 1), g.Coord(dst, 1)
		if a1 > b1 {
			// West hops first, alone.
			if cid, ok := g.Link(at, 1, 1, 0); ok {
				return []topology.ChannelID{cid}
			}
			return nil
		}
		var out []topology.ChannelID
		if a1 < b1 {
			if cid, ok := g.Link(at, 1, 0, 0); ok {
				out = append(out, cid)
			}
		}
		if a0 < b0 {
			if cid, ok := g.Link(at, 0, 0, 0); ok {
				out = append(out, cid)
			}
		} else if a0 > b0 {
			if cid, ok := g.Link(at, 0, 1, 0); ok {
				out = append(out, cid)
			}
		}
		return out
	}
	return Algorithm{Name: fmt.Sprintf("westfirst.%s", g.Name()), Net: g.Network, Route: route}
}

// DuatoMesh is Duato's protocol on a mesh with at least two virtual
// channels: virtual channels 1..VCs-1 are fully adaptive (any minimal
// direction), and virtual channel 0 is the escape layer running
// dimension-order routing; the escape channel for the message's current
// DOR hop is always among the candidates. Duato's theorem makes the
// algorithm deadlock-free: the escape sub-network's dependency graph is
// acyclic even though the full candidate structure is cyclic.
func DuatoMesh(g *topology.Grid) Algorithm {
	if g.Wrap {
		panic("adaptive: DuatoMesh requires a mesh")
	}
	if g.VCs < 2 {
		panic("adaptive: DuatoMesh requires at least two virtual channels")
	}
	route := func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		var out []topology.ChannelID
		// Adaptive candidates: every minimal direction on VC >= 1.
		for d := range g.Dims {
			a, b := g.Coord(at, d), g.Coord(dst, d)
			dir := -1
			if a < b {
				dir = 0
			} else if a > b {
				dir = 1
			}
			if dir < 0 {
				continue
			}
			for vc := 1; vc < g.VCs; vc++ {
				if cid, ok := g.Link(at, d, dir, vc); ok {
					out = append(out, cid)
				}
			}
		}
		// Escape candidate: the dimension-order hop on VC 0.
		for d := range g.Dims {
			a, b := g.Coord(at, d), g.Coord(dst, d)
			if a == b {
				continue
			}
			dir := 0
			if a > b {
				dir = 1
			}
			if cid, ok := g.Link(at, d, dir, 0); ok {
				out = append(out, cid)
			}
			break
		}
		return out
	}
	return Algorithm{Name: fmt.Sprintf("duato.%s", g.Name()), Net: g.Network, Route: route}
}

// Spec builds a simulator message spec routed by the algorithm.
func (a Algorithm) Spec(src, dst topology.NodeID, length, injectAt int) sim.MessageSpec {
	return sim.MessageSpec{
		Src: src, Dst: dst, Length: length,
		Route:    a.Route,
		InjectAt: injectAt,
		Label:    fmt.Sprintf("%s:%d->%d", a.Name, src, dst),
	}
}
