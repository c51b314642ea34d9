package topology

import "slices"

// Distances returns the all-pairs hop-count distance matrix computed by BFS
// over the channel graph. Distances()[u][v] is the minimum number of
// channels a message must traverse from u to v, or -1 when v is unreachable
// from u. Multiplicity of channels between a pair of nodes does not affect
// distance.
func (n *Network) Distances() [][]int {
	size := len(n.nodes)
	flat := make([]int, size*size)
	d := make([][]int, size)
	var t Tree
	for u := range d {
		n.BFS(NodeID(u), &t)
		d[u] = flat[u*size : (u+1)*size : (u+1)*size]
		copy(d[u], t.depth)
	}
	return d
}

// Tree is a breadth-first search tree of a network from one source: the
// channel by which the search first reached each node, and each node's
// depth. It is the one place where shortest paths break ties, so every
// shortest path in the repository agrees with ShortestPath. The zero
// value is ready for BFS, which reuses its arrays from call to call.
type Tree struct {
	net   *Network
	prev  []ChannelID // channel that first reached each node; None at src
	depth []int       // hops from src; -1 when unreachable
	queue []NodeID    // nodes in discovery order
}

// BFS fills t with the breadth-first search tree from src. Out-channels
// are explored in ID order, and prev[v] is fixed when v is first
// discovered, so the tree's path to v is the path a search from src that
// stops at v would find.
func (n *Network) BFS(src NodeID, t *Tree) {
	size := len(n.nodes)
	t.net = n
	t.prev = resize(t.prev, size)
	t.depth = resize(t.depth, size)
	for i := range t.depth {
		t.prev[i], t.depth[i] = None, -1
	}
	t.depth[src] = 0
	t.queue = append(t.queue[:0], src)
	for i := 0; i < len(t.queue); i++ {
		u := t.queue[i]
		for _, cid := range n.out[u] {
			v := n.channels[cid].Dst
			if t.depth[v] < 0 {
				t.depth[v] = t.depth[u] + 1
				t.prev[v] = cid
				t.queue = append(t.queue, v)
			}
		}
	}
}

// resize returns s with length n, reallocated only when it lacks the
// capacity; the contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Depth returns the number of channels on the tree's path to v, or -1 when
// v is unreachable from the source.
func (t *Tree) Depth(v NodeID) int { return t.depth[v] }

// Prev returns the channel by which the search first reached v: the last
// channel of the tree's path to v. It is None for the source and for
// unreachable nodes.
func (t *Tree) Prev(v NodeID) ChannelID { return t.prev[v] }

// Order returns the reachable nodes in the order the search discovered
// them, the source first, so every node comes after its tree parent. The
// slice is the tree's own; it changes at the next BFS.
func (t *Tree) Order() []NodeID { return t.queue }

// AppendPath appends the tree's channel path from the source to v, in
// forward order, to buf and returns the extended slice. It appends nothing
// when v is the source or unreachable.
func (t *Tree) AppendPath(buf []ChannelID, v NodeID) []ChannelID {
	d := t.depth[v]
	if d <= 0 {
		return buf
	}
	at := len(buf)
	buf = slices.Grow(buf, d)[:at+d]
	for i := at + d - 1; i >= at; i-- {
		cid := t.prev[v]
		buf[i] = cid
		v = t.net.channels[cid].Src
	}
	return buf
}

// ShortestPath returns one shortest channel path from src to dst: the path
// to dst of the BFS tree from src. It returns nil when dst is unreachable
// or src == dst. Callers routing many pairs from one source should take
// the Tree once instead.
func (n *Network) ShortestPath(src, dst NodeID) []ChannelID {
	if src == dst {
		return nil
	}
	var t Tree
	n.BFS(src, &t)
	if t.depth[dst] < 0 {
		return nil
	}
	return t.AppendPath(make([]ChannelID, 0, t.depth[dst]), dst)
}

// IsPath reports whether path is a contiguous channel path from src to dst.
// An empty path is a valid path only when src == dst.
func (n *Network) IsPath(src, dst NodeID, path []ChannelID) bool {
	at := src
	for _, cid := range path {
		if !n.validChannel(cid) {
			return false
		}
		c := n.channels[cid]
		if c.Src != at {
			return false
		}
		at = c.Dst
	}
	return at == dst
}
