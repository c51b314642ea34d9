package routing

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
)

// Valiant returns Valiant-style two-phase oblivious routing on a mesh:
// every message routes dimension-ordered to a per-pair random intermediate
// node, then dimension-ordered to its destination. The randomization is
// fixed per (source, destination) pair by the seed, so the algorithm is
// oblivious (one path per pair).
//
// With vcSplit=false both phases use virtual channel 0 and the channel
// dependency graph is cyclic — phase-two traffic turns against the
// dimension order, closing cycles, and the algorithm can deadlock. With
// vcSplit=true (requires a grid with at least two virtual channels) phase
// one runs on VC0 and phase two on VC1; the per-phase graphs are acyclic
// and phase one only ever feeds phase two, so the whole graph is acyclic
// and the algorithm is deadlock-free.
func Valiant(g *topology.Grid, seed int64, vcSplit bool) Algorithm {
	if g.Wrap {
		panic("routing: Valiant requires a mesh")
	}
	if vcSplit && g.VCs < 2 {
		panic("routing: Valiant with vcSplit requires at least 2 virtual channels")
	}
	rng := rand.New(rand.NewSource(seed))
	name := fmt.Sprintf("valiant%d.%s", seed, g.Name())
	if vcSplit {
		name = fmt.Sprintf("valiant%d.vcsplit.%s", seed, g.Name())
	}
	t := NewTable(g.Network, name)
	n := g.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			src, dst := topology.NodeID(s), topology.NodeID(d)
			mid := topology.NodeID(rng.Intn(n))
			vc2 := 0
			if vcSplit {
				vc2 = 1
			}
			path := append(dorPath(g, src, mid, 0), dorPath(g, mid, dst, vc2)...)
			if len(path) == 0 {
				// mid == src == ... degenerate: route directly.
				path = dorPath(g, src, dst, 0)
			}
			// A path through mid may revisit channels (out to mid and
			// straight back); collapse such immediate backtracks by
			// rerouting directly when the combined path is not simple.
			if t.repeats(path) {
				path = dorPath(g, src, dst, 0)
			}
			t.MustSetPath(src, dst, path)
		}
	}
	return t
}

// dorPath returns the dimension-order path from src to dst on the given
// virtual channel (empty when src == dst).
func dorPath(g *topology.Grid, src, dst topology.NodeID, vc int) []topology.ChannelID {
	var path []topology.ChannelID
	at := src
	for at != dst {
		advanced := false
		for d := range g.Dims {
			a, b := g.Coord(at, d), g.Coord(dst, d)
			if a == b {
				continue
			}
			dir := 0
			if a > b {
				dir = 1
			}
			cid, ok := g.Link(at, d, dir, vc)
			if !ok {
				panic("routing: dorPath: missing mesh link")
			}
			path = append(path, cid)
			at = g.Channel(cid).Dst
			advanced = true
			break
		}
		if !advanced {
			break
		}
	}
	return path
}
