package topology

import (
	"sort"
)

// Automorphism is a structure-preserving relabeling of a network onto
// itself: Nodes[v] is the image of node v and Chans[c] the image of
// channel c. Every channel's endpoints and virtual-channel index are
// preserved — Channel(Chans[c]).Src == Nodes[Channel(c).Src], likewise
// for Dst, and the VC indices match. Node and channel labels are purely
// descriptive and are ignored, so two nodes that differ only in label
// are interchangeable.
//
// When several parallel channels share the same (Src, Dst, VC) triple the
// channel images are paired in ascending ID order, so each node
// permutation contributes exactly one Automorphism. For state-space
// quotienting that canonical choice is all that is needed: any subgroup
// (even a non-closed subset) of the full automorphism group yields a
// sound, if possibly coarser, reduction.
type Automorphism struct {
	Nodes []NodeID
	Chans []ChannelID
}

// automorphismStepCap bounds the total number of backtracking extensions
// a single Automorphisms call may attempt, so a pathological highly
// symmetric multigraph cannot hang the caller. The regular topologies in
// this repository resolve in a few thousand steps.
const automorphismStepCap = 1 << 20

// Automorphisms enumerates graph automorphisms of the network, identity
// first, in lexicographic order of the node image array. limit caps the
// number returned (limit <= 0 means 64). The second result reports
// whether the enumeration is complete: false means the group is larger
// than the limit (or the internal step cap fired) and only a prefix was
// returned — still safe for symmetry reduction, which works with any
// subset containing the identity.
//
// The search is a vertex-refinement backtrack: nodes are first colored by
// an iterated Weisfeiler-Leman invariant (degree signature refined by
// neighbor colors until stable), then candidate images are tried within
// color classes with incremental multigraph-consistency checks.
func (n *Network) Automorphisms(limit int) ([]Automorphism, bool) {
	if limit <= 0 {
		limit = 64
	}
	nn := len(n.nodes)
	if nn == 0 {
		return nil, true
	}
	color := n.refineColors()

	// pairKey[(u,v)] is the sorted VC multiset of channels u -> v,
	// interned to a comparable id so the backtracking check is an int
	// compare.
	type pair struct{ u, v NodeID }
	keyID := make(map[string]int)
	pairKey := make(map[pair]int)
	intern := func(vcs []int) int {
		sort.Ints(vcs)
		var b []byte
		for _, vc := range vcs {
			b = appendInt(b, vc)
		}
		k := string(b)
		id, ok := keyID[k]
		if !ok {
			id = len(keyID) + 1
			keyID[k] = id
		}
		return id
	}
	{
		byPair := make(map[pair][]int)
		for _, c := range n.channels {
			p := pair{c.Src, c.Dst}
			byPair[p] = append(byPair[p], c.VC)
		}
		for p, vcs := range byPair {
			pairKey[p] = intern(vcs)
		}
	}
	key := func(u, v NodeID) int { return pairKey[pair{u, v}] }

	img := make([]NodeID, nn)
	used := make([]bool, nn)
	for i := range img {
		img[i] = -1
	}

	var autos []Automorphism
	complete := true
	steps := 0

	var extend func(v int) bool // false = abort enumeration entirely
	extend = func(v int) bool {
		if v == nn {
			if a, ok := n.deriveChannelMap(img); ok {
				autos = append(autos, a)
				if len(autos) >= limit {
					complete = false
					return false
				}
			}
			return true
		}
		for w := 0; w < nn; w++ {
			if used[w] || color[v] != color[w] {
				continue
			}
			steps++
			if steps > automorphismStepCap {
				complete = false
				return false
			}
			ok := true
			for u := 0; u < v; u++ {
				if key(NodeID(v), NodeID(u)) != key(NodeID(w), img[u]) ||
					key(NodeID(u), NodeID(v)) != key(img[u], NodeID(w)) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			img[v] = NodeID(w)
			used[w] = true
			cont := extend(v + 1)
			img[v] = -1
			used[w] = false
			if !cont {
				return false
			}
		}
		return true
	}
	extend(0)
	return autos, complete
}

// deriveChannelMap turns a node permutation into the canonical channel
// permutation: for every ordered node pair, channels are matched to the
// image pair's channels in ascending (VC, ID) order. It reports false if
// the VC multisets do not line up (the node map was not an automorphism
// after all — cannot happen after the backtracking checks, kept as a
// guard).
func (n *Network) deriveChannelMap(img []NodeID) (Automorphism, bool) {
	chans := make([]ChannelID, len(n.channels))
	for i := range chans {
		chans[i] = None
	}
	// Group channels by ordered pair once, in ID order.
	byPair := make(map[[2]NodeID][]ChannelID, len(n.channels))
	for _, c := range n.channels {
		p := [2]NodeID{c.Src, c.Dst}
		byPair[p] = append(byPair[p], c.ID)
	}
	sortByVC := func(ids []ChannelID) {
		sort.Slice(ids, func(i, j int) bool {
			a, b := n.channels[ids[i]], n.channels[ids[j]]
			if a.VC != b.VC {
				return a.VC < b.VC
			}
			return a.ID < b.ID
		})
	}
	for p, src := range byPair {
		dst := byPair[[2]NodeID{img[p[0]], img[p[1]]}]
		if len(dst) != len(src) {
			return Automorphism{}, false
		}
		sortByVC(src)
		sortByVC(dst)
		for i := range src {
			if n.channels[src[i]].VC != n.channels[dst[i]].VC {
				return Automorphism{}, false
			}
			chans[src[i]] = dst[i]
		}
	}
	return Automorphism{Nodes: append([]NodeID(nil), img...), Chans: chans}, true
}

// refineColors computes a stable node coloring invariant under
// automorphism: the initial color is the (in-degree, out-degree, VC
// multiset) signature, refined by the sorted colors of channel-connected
// neighbors until no class splits further.
func (n *Network) refineColors() []int {
	nn := len(n.nodes)
	color := make([]int, nn)
	next := make([]int, nn)
	sig := make([]string, nn)
	for round := 0; round <= nn; round++ {
		classes := make(map[string]int)
		for v := 0; v < nn; v++ {
			var b []byte
			b = appendInt(b, color[v])
			var outs, ins []int
			for _, cid := range n.out[v] {
				c := n.channels[cid]
				outs = append(outs, c.VC<<20|color[c.Dst])
			}
			for _, cid := range n.in[v] {
				c := n.channels[cid]
				ins = append(ins, c.VC<<20|color[c.Src])
			}
			sort.Ints(outs)
			sort.Ints(ins)
			b = appendInt(b, len(outs))
			for _, x := range outs {
				b = appendInt(b, x)
			}
			b = appendInt(b, -1)
			for _, x := range ins {
				b = appendInt(b, x)
			}
			sig[v] = string(b)
			if _, ok := classes[sig[v]]; !ok {
				classes[sig[v]] = len(classes)
			}
		}
		changed := false
		for v := 0; v < nn; v++ {
			next[v] = classes[sig[v]]
			if next[v] != color[v] {
				changed = true
			}
		}
		copy(color, next)
		if !changed {
			break
		}
	}
	return color
}

// appendInt appends a self-delimiting little-endian varint-ish rendering
// of x, adequate for building hash-key byte strings.
func appendInt(b []byte, x int) []byte {
	u := uint64(int64(x))
	for {
		d := byte(u & 0x7f)
		u >>= 7
		if u == 0 {
			return append(b, d|0x80)
		}
		b = append(b, d)
	}
}
