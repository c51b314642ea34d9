// Package core is the top-level analysis API of the library: given an
// oblivious wormhole routing algorithm, it decides deadlock freedom using
// the full chain of results from Schwiebert (SPAA '97):
//
//  1. build the channel dependency graph (Dally–Seitz);
//  2. if it is acyclic, the algorithm is deadlock-free — a topological
//     channel numbering is produced as the certificate;
//  3. otherwise, screen with the paper's corollaries: a suffix-closed or
//     input-channel-independent (R: N×N -> C) algorithm cannot have
//     unreachable configurations, so any cycle is a reachable deadlock;
//  4. otherwise, decompose each cycle into candidate Definition 6
//     configurations (tilings of the cycle by message arcs) and classify
//     each with the Section 5 timing theory (internal/unreachable):
//     a cycle all of whose configurations are false resource cycles is
//     harmless; if every cycle is harmless the algorithm is deadlock-free
//     even though its dependency graph is cyclic.
//
// The classification in step 4 is exact for the geometry the paper
// studies — configurations whose members share at most one channel, at the
// start of their approaches — and is cross-validated against the
// exhaustive state-space model checker (internal/mcheck) in the test
// suite. Configurations outside that geometry are reported as Unknown
// rather than guessed.
package core

import (
	"repro/internal/cdg"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Member is one message of a candidate deadlock configuration: the message
// from Src to Dst holds the cycle channels Arc and is blocked at the next
// member's first arc channel. Arc and Approach share storage with other
// members and must not be modified.
type Member struct {
	Src, Dst topology.NodeID
	// Arc is the run of consecutive cycle channels this member holds, in
	// path order.
	Arc []topology.ChannelID
	// Approach is the prefix of the member's routing path before Arc.
	Approach []topology.ChannelID
}

// Configuration is a candidate Definition 6 deadlock configuration: a
// tiling of a CDG cycle by member arcs, in ring order.
type Configuration struct {
	Members []Member
}

// decomposeCycle enumerates the ways the cycle can be produced by actual
// messages: tilings of the cycle channels into consecutive arcs, each arc
// realized by a (src, dst) pair whose routing path traverses the arc and
// is then blocked at the next arc's first channel.
//
// Tilings are enumerated per start position first = 0..L-1: every tiling
// with a boundary at first, arcs in ring order from there. A tiling with k
// boundaries is so enumerated k times and kept only from its smallest
// boundary, i.e. when none of its arcs wraps past the end of the cycle to
// start below first. Enumeration stops once the configurations kept from
// earlier start positions plus every tiling enumerated from the current
// one, repeats included, number maxConfigs (0 = unlimited); the bool
// reports that truncation.
func decomposeCycle(alg routing.Algorithm, cyc cdg.Cycle, maxConfigs int) ([]Configuration, bool) {
	net := alg.Network()
	L := len(cyc)

	// realizers[p*L+l-1] lists the (src,dst) pairs realizing the arc of
	// length l starting at cycle position p: the pair's path contains
	// cyc[p..p+l-1] followed by cyc[(p+l)%L], and the arc is entered from
	// outside the cycle (the channel before cyc[p] in the path, if any,
	// is not the cycle predecessor — otherwise the "member" would be a
	// longer arc).
	type realizer struct {
		src, dst topology.NodeID
		approach []topology.ChannelID
		// dup marks a later run of the pair's path realizing the same arc;
		// tilings through it repeat those through the earlier run.
		dup bool
	}
	realizers := make([][]realizer, L*L)

	// Index: for every pair's path, find occurrences of cycle channels.
	pos := make([]int, net.NumChannels()) // channel -> cycle position, or -1
	for i := range pos {
		pos[i] = -1
	}
	for i, c := range cyc {
		pos[c] = i
	}
	n := net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			src, dst := topology.NodeID(s), topology.NodeID(d)
			path := alg.Path(src, dst)
			// Scan maximal runs of cycle channels consistent with cyclic
			// order.
			for i := 0; i < len(path); i++ {
				p := pos[path[i]]
				if p < 0 {
					continue
				}
				// Is this the start of a run (previous path channel is not
				// the cycle predecessor)?
				if i > 0 {
					if pp := pos[path[i-1]]; pp >= 0 && (pp+1)%L == p {
						continue // interior of a longer run
					}
				}
				// Extend the run.
				l := 1
				for i+l < len(path) && pos[path[i+l]] == (p+l)%L {
					l++
				}
				// A member holding arc length a (1 <= a < l <= L) blocked
				// at cyc[(p+a)%L] requires the path to continue with that
				// channel, i.e. a < l. Every prefix length a of the run
				// with a < l is a realizable arc, all sharing one approach.
				if l > 1 {
					approach := append([]topology.ChannelID(nil), path[:i]...)
					for a := 1; a < l && a < L; a++ {
						rs := realizers[p*L+a-1]
						dup := len(rs) > 0 && rs[len(rs)-1].src == src && rs[len(rs)-1].dst == dst
						realizers[p*L+a-1] = append(rs, realizer{src: src, dst: dst, approach: approach, dup: dup})
					}
				}
				i += l - 1
			}
		}
	}

	// Tile the cycle by depth-first search over (arc, realizer) picks,
	// building Members only for kept tilings. Arcs are capped subslices of
	// one doubled copy of the cycle.
	ring := append(append(make([]topology.ChannelID, 0, 2*L), cyc...), cyc...)
	type pick struct {
		start, length int
		r             *realizer
	}
	var (
		configs   []Configuration
		picks     []pick
		first     int
		count     int
		truncated bool
	)
	var build func(start, covered int, repeat bool)
	build = func(start, covered int, repeat bool) {
		if covered == L {
			if !repeat {
				members := make([]Member, len(picks))
				for j, pk := range picks {
					end := pk.start + pk.length
					members[j] = Member{Src: pk.r.src, Dst: pk.r.dst, Arc: ring[pk.start:end:end], Approach: pk.r.approach}
				}
				configs = append(configs, Configuration{Members: members})
			}
			count++
			truncated = maxConfigs > 0 && count >= maxConfigs
			return
		}
		// a < L: a single member cannot block itself.
		for a := 1; a <= L-covered && a < L; a++ {
			next := (start + a) % L
			rs := realizers[start*L+a-1]
		candidates:
			for k := range rs {
				r := &rs[k]
				// Distinct (src,dst) pairs per member.
				for _, pk := range picks {
					if pk.r.src == r.src && pk.r.dst == r.dst {
						continue candidates
					}
				}
				picks = append(picks, pick{start: start, length: a, r: r})
				// The next arc starts below first only after wrapping: the
				// tiling has a smaller boundary and was kept from there.
				build(next, covered+a, repeat || r.dup || next < first)
				picks = picks[:len(picks)-1]
				if truncated {
					return
				}
			}
		}
	}
	for ; first < L && !truncated; first++ {
		count = len(configs)
		build(first, 0, false)
	}
	return configs, truncated
}
