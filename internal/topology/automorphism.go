package topology

import (
	"cmp"
	"slices"
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
	pg := n.groupPairs()

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
			if a, ok := pg.channelMap(n, img); ok {
				autos = append(autos, a)
				if len(autos) >= limit {
					complete = false
					return false
				}
			}
			return true
		}
		rowV, colV := pg.key[v*nn:(v+1)*nn], pg.key[v:]
		for w := 0; w < nn; w++ {
			if used[w] || color[v] != color[w] {
				continue
			}
			steps++
			if steps > automorphismStepCap {
				complete = false
				return false
			}
			rowW, colW := pg.key[w*nn:(w+1)*nn], pg.key[w:]
			ok := true
			for u := 0; u < v; u++ {
				iu := int(img[u])
				if rowV[u] != rowW[iu] || colV[u*nn] != colW[iu*nn] {
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

// pairGroups groups a network's channels by ordered node pair, once per
// Automorphisms call. Group g is chans[start[g]:start[g+1]], the channels
// of one pair in ascending (VC, ID) order. The two n×n tables are indexed
// u*n+v: group holds the group of the channels u -> v plus one, 0 when
// there are none, and key identifies their VC multiset, 0 when there are
// none and equal for equal multisets, so the backtracking check is an
// int compare.
type pairGroups struct {
	chans []ChannelID
	start []int
	group []int32
	key   []int32
}

// groupPairs builds the pair groups and both tables from one sort of the
// channels by (Src, Dst, VC, ID).
func (n *Network) groupPairs() pairGroups {
	nn := len(n.nodes)
	pg := pairGroups{
		chans: make([]ChannelID, len(n.channels)),
		group: make([]int32, nn*nn),
		key:   make([]int32, nn*nn),
	}
	for i := range pg.chans {
		pg.chans[i] = ChannelID(i)
	}
	slices.SortFunc(pg.chans, func(a, b ChannelID) int {
		ca, cb := &n.channels[a], &n.channels[b]
		return cmp.Or(cmp.Compare(ca.Src, cb.Src), cmp.Compare(ca.Dst, cb.Dst), cmp.Compare(ca.VC, cb.VC), cmp.Compare(a, b))
	})
	// reps[k-1] is the first group whose VC multiset has key k; the paper
	// networks and the regular topologies have one or two multisets.
	var reps []int
	sameVCs := func(a, b []ChannelID) bool {
		return slices.EqualFunc(a, b, func(x, y ChannelID) bool { return n.channels[x].VC == n.channels[y].VC })
	}
	for i := 0; i < len(pg.chans); {
		c := &n.channels[pg.chans[i]]
		j := i + 1
		for j < len(pg.chans) && n.channels[pg.chans[j]].Src == c.Src && n.channels[pg.chans[j]].Dst == c.Dst {
			j++
		}
		g := len(pg.start)
		pg.start = append(pg.start, i)
		k := 0
		for r, rep := range reps {
			if sameVCs(pg.chans[i:j], pg.members(rep)) {
				k = r + 1
				break
			}
		}
		if k == 0 {
			reps = append(reps, g)
			k = len(reps)
		}
		at := int(c.Src)*nn + int(c.Dst)
		pg.group[at] = int32(g + 1)
		pg.key[at] = int32(k)
		i = j
	}
	pg.start = append(pg.start, len(pg.chans))
	return pg
}

// members returns group g's channels. While groupPairs is still adding
// groups, only the earlier groups, whose end is already recorded, may be
// asked for.
func (pg *pairGroups) members(g int) []ChannelID {
	end := len(pg.chans)
	if g+1 < len(pg.start) {
		end = pg.start[g+1]
	}
	return pg.chans[pg.start[g]:end]
}

// channelMap turns a node permutation into the canonical channel
// permutation: for every ordered node pair, channels are matched to the
// image pair's channels in ascending (VC, ID) order. It reports false if
// the VC multisets do not line up (the node map was not an automorphism
// after all — cannot happen after the backtracking checks, kept as a
// guard).
func (pg *pairGroups) channelMap(n *Network, img []NodeID) (Automorphism, bool) {
	nn := len(n.nodes)
	chans := make([]ChannelID, len(n.channels))
	for g := 0; g+1 < len(pg.start); g++ {
		src := pg.members(g)
		c := &n.channels[src[0]]
		h := pg.group[int(img[c.Src])*nn+int(img[c.Dst])] - 1
		if h < 0 {
			return Automorphism{}, false
		}
		dst := pg.members(int(h))
		if len(dst) != len(src) {
			return Automorphism{}, false
		}
		for i := range src {
			if n.channels[src[i]].VC != n.channels[dst[i]].VC {
				return Automorphism{}, false
			}
			chans[src[i]] = dst[i]
		}
	}
	return Automorphism{Nodes: slices.Clone(img), Chans: chans}, true
}

// refineColors computes a stable node coloring invariant under
// automorphism: the initial color is the (in-degree, out-degree, VC
// multiset) signature, refined by the sorted colors of channel-connected
// neighbors until no class splits further. Each round writes every node's
// signature into one flat array — its color, its out-degree, its sorted
// out-neighbor keys (VC<<20 | color), -1 and its sorted in-neighbor keys
// — and numbers the classes by sorting the nodes on it. A round that
// splits no class ends the refinement: every signature starts with the
// node's color, so a round can only split classes.
func (n *Network) refineColors() []int {
	nn := len(n.nodes)
	color := make([]int, nn)
	off := make([]int, nn+1)
	for v := range nn {
		off[v+1] = off[v] + 3 + len(n.out[v]) + len(n.in[v])
	}
	sig := make([]int, off[nn])
	sigOf := func(v int) []int { return sig[off[v]:off[v+1]] }
	order := make([]int, nn)
	classes := 1
	for round := 0; round <= nn; round++ {
		for v := range nn {
			s, outs := sigOf(v), len(n.out[v])
			s[0], s[1], s[2+outs] = color[v], outs, -1
			for i, cid := range n.out[v] {
				c := &n.channels[cid]
				s[2+i] = c.VC<<20 | color[c.Dst]
			}
			for i, cid := range n.in[v] {
				c := &n.channels[cid]
				s[3+outs+i] = c.VC<<20 | color[c.Src]
			}
			slices.Sort(s[2 : 2+outs])
			slices.Sort(s[3+outs:])
		}
		for v := range order {
			order[v] = v
		}
		slices.SortFunc(order, func(a, b int) int { return slices.Compare(sigOf(a), sigOf(b)) })
		next := 0
		for i, v := range order {
			if i > 0 && !slices.Equal(sigOf(order[i-1]), sigOf(v)) {
				next++
			}
			color[v] = next
		}
		if next+1 == classes {
			break
		}
		classes = next + 1
	}
	return color
}
