package routing

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
)

// ShortestBFS returns the oblivious routing algorithm that sends every
// message along the deterministic BFS shortest path between its endpoints.
// It is minimal and complete on any strongly connected network, but not
// necessarily coherent.
func ShortestBFS(net *topology.Network) Algorithm {
	t := NewTable(net, fmt.Sprintf("bfs.%s", net.Name()))
	if err := t.FillShortest(); err != nil {
		panic(err)
	}
	return t
}

// Hub returns hub (star) routing: every message travels from its source to
// the hub node and then from the hub to its destination, each leg along a
// deterministic BFS shortest path. Messages from or to the hub use the
// direct leg, and so do pairs whose two legs would hold one channel twice
// (see FillHub). This mirrors the "route via N*" rule the paper's Figure 1
// network uses for all non-exceptional traffic.
func Hub(net *topology.Network, hub topology.NodeID) Algorithm {
	t := NewTable(net, fmt.Sprintf("hub%d.%s", hub, net.Name()))
	if err := t.FillHub(hub); err != nil {
		panic(err)
	}
	return t
}

// RandomMinimal returns an oblivious algorithm that assigns each (src, dst)
// pair one uniformly chosen minimal path, using the given seed. It is used
// by property-based tests to exercise the checkers and the analyzer on a
// diverse family of minimal oblivious algorithms. The result is
// deterministic for a fixed seed.
func RandomMinimal(net *topology.Network, seed int64) Algorithm {
	rng := rand.New(rand.NewSource(seed))
	t := NewTable(net, fmt.Sprintf("randmin%d.%s", seed, net.Name()))
	dist := net.Distances()
	n := net.NumNodes()
	var path, options []topology.ChannelID
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			src, dst := topology.NodeID(s), topology.NodeID(d)
			if src == dst {
				continue
			}
			path, options = randomMinimalPath(net, dist, src, dst, rng, path[:0], options)
			if path == nil {
				panic(fmt.Sprintf("routing: RandomMinimal: no path (%d,%d)", src, dst))
			}
			t.MustSetPath(src, dst, path)
		}
	}
	return t
}

// randomMinimalPath appends to path a walk from src to dst that chooses
// uniformly among neighbors that stay on a shortest path, using options
// as scratch. It returns the extended path, or nil when no walk exists,
// and the scratch for reuse.
func randomMinimalPath(net *topology.Network, dist [][]int, src, dst topology.NodeID, rng *rand.Rand,
	path, options []topology.ChannelID) ([]topology.ChannelID, []topology.ChannelID) {
	if dist[src][dst] < 0 {
		return nil, options
	}
	at := src
	for at != dst {
		options = options[:0]
		for _, cid := range net.Out(at) {
			next := net.Channel(cid).Dst
			if dist[next][dst] == dist[at][dst]-1 {
				options = append(options, cid)
			}
		}
		if len(options) == 0 {
			return nil, options
		}
		pick := options[rng.Intn(len(options))]
		path = append(path, pick)
		at = net.Channel(pick).Dst
	}
	return path, options
}
