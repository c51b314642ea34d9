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
	"slices"

	"repro/internal/cdg"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/unreachable"
)

// Member is one message of a candidate deadlock configuration: the message
// from Src to Dst holds the cycle channels Arc and is blocked at the next
// member's first arc channel. Arc and Approach are capped views of the
// cycle's store, which no later cycle reuses, and must not be modified.
type Member struct {
	Src, Dst topology.NodeID
	// Arc is the run of consecutive cycle channels this member holds, in
	// path order.
	Arc []topology.ChannelID
	// Approach is the prefix of the member's routing path before Arc.
	Approach []topology.ChannelID
}

// Configuration is a candidate Definition 6 deadlock configuration: a
// tiling of a CDG cycle by member arcs, in ring order. Its members are
// pointer-free records into its cycle's store; Member builds each view.
type Configuration struct {
	store *cycleStore
	recs  []memberRec
}

// Len returns the number of members.
func (c Configuration) Len() int { return len(c.recs) }

// Member returns member j, in ring order. It does not allocate.
func (c Configuration) Member(j int) Member {
	r, s := c.recs[j], c.store
	end := r.start + r.length
	return Member{Src: topology.NodeID(r.pair / s.nodes), Dst: topology.NodeID(r.pair % s.nodes),
		Arc: s.ring[r.start:end:end], Approach: s.approach(r.approach)}
}

// cycleStore holds what the members of one cycle's configurations view:
// the cycle twice over, which arcs are subslices of, and the approach of
// every run of the cycle on a path, approaches[approachAt[i]:approachAt[i+1]]
// for run i. Each cycle gets a fresh store.
type cycleStore struct {
	ring, approaches []topology.ChannelID
	approachAt       []int32
	nodes            int32
}

// approach returns run i's approach, nil when the run starts its path.
func (s *cycleStore) approach(i int32) []topology.ChannelID {
	from, to := s.approachAt[i], s.approachAt[i+1]
	if from == to {
		return nil
	}
	return s.approaches[from:to:to]
}

// memberRec is one member: pair s*nodes+d holds ring[start:start+length]
// after approach number approach.
type memberRec struct {
	pair, start, length, approach int32
}

// pathIndex holds every (src, dst) path of an algorithm, fetched once per
// Analyze, and where each channel occurs on them. Cycle workers share it
// read-only and never call the Algorithm.
type pathIndex struct {
	net   *topology.Network
	nodes int
	// paths[s*nodes+d] is the path from s to d (nil for s == d).
	paths [][]topology.ChannelID
	// occ[occStart[c]:occStart[c+1]] are channel c's occurrences, in
	// ascending (pair, position) order.
	occStart []int32
	occ      []occurrence
}

// occurrence is position at of pair's path.
type occurrence struct {
	pair, at int32
}

func newPathIndex(alg routing.Algorithm) *pathIndex {
	net := alg.Network()
	n := net.NumNodes()
	idx := &pathIndex{net: net, nodes: n, paths: make([][]topology.ChannelID, n*n),
		occStart: make([]int32, net.NumChannels()+1)}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				path := alg.Path(topology.NodeID(s), topology.NodeID(d))
				idx.paths[s*n+d] = path
				for _, c := range path {
					idx.occStart[c+1]++
				}
			}
		}
	}
	for c := 1; c < len(idx.occStart); c++ {
		idx.occStart[c] += idx.occStart[c-1]
	}
	idx.occ = make([]occurrence, idx.occStart[len(idx.occStart)-1])
	next := slices.Clone(idx.occStart)
	for pair, path := range idx.paths {
		for at, c := range path {
			idx.occ[next[c]] = occurrence{pair: int32(pair), at: int32(at)}
			next[c]++
		}
	}
	return idx
}

// realizer is a (src, dst) pair whose path realizes one arc of the
// current cycle after the approach of run number approach.
type realizer struct {
	pair, approach int32
	// dup marks a later run of the pair's path realizing the same arc;
	// tilings through it repeat those through the earlier run.
	dup bool
}

// run is a maximal run of l consecutive cycle channels on pair's path,
// starting at path position at and cycle position p.
type run struct {
	pair, at, p, l int32
}

// cycleWorker decomposes and classifies cycles one after another, on
// scratch reused from cycle to cycle. Each cycle's store and the member
// records of the configurations it keeps are never reused: their
// contents are carved from slabs, so reports may hold them.
type cycleWorker struct {
	idx *pathIndex
	// cyc is the current cycle, and pos[c] is channel c's position on it,
	// or -1.
	cyc cdg.Cycle
	pos []int32

	runs []run
	// The realizers of the arc of length l at cycle position p are
	// realizers[bucket[b]:bucket[b+1]], b = p*L+l-1, ordered by pair and
	// then by position on the pair's path.
	bucket    []int32
	realizers []realizer
	// lens[lensAt[p]:lensAt[p+1]] are the ascending arc lengths at cycle
	// position p with a realizer, and can[p*(L+1)+n] reports that such
	// arcs tile the n channels from position p, ignoring the
	// distinct-pair rule.
	lens, lensAt []int32
	can          []bool

	// Tiling search state: picks are the members of the tiling under
	// construction, pairUsed marks their pairs.
	store               *cycleStore
	picks               []memberRec
	pairUsed            []bool
	configs             []Configuration
	first, count, limit int
	truncated           bool

	chans slab[topology.ChannelID]
	offs  slab[int32]
	recs  slab[memberRec]

	// Classifier scratch: seen[c] is the stamp of the last member whose
	// approach used c; every member of every configuration gets a fresh,
	// larger stamp. onCycle[c] caches the Unknown reason for an approach
	// through cycle channel c.
	seen     []uint32
	stamp    uint32
	entrants []unreachable.Entrant
	onCycle  []string
}

func newCycleWorker(idx *pathIndex) *cycleWorker {
	w := &cycleWorker{
		idx:      idx,
		pos:      make([]int32, idx.net.NumChannels()),
		pairUsed: make([]bool, len(idx.paths)),
		seen:     make([]uint32, idx.net.NumChannels()),
		onCycle:  make([]string, idx.net.NumChannels()),
	}
	for c := range w.pos {
		w.pos[c] = -1
	}
	return w
}

// slab hands out capacity-limited subslices of shared chunks. A new chunk
// holds max(64, n, twice the last chunk) elements, the doubling capped at
// maxSlabChunk, so a small analysis stays small and a large one
// allocates once per maxSlabChunk elements carved.
type slab[T any] struct {
	free  []T
	chunk int
}

// maxSlabChunk caps slab chunks at 32 KiB of member records. Uncapped
// doubling left half-used chunks of megabytes, whose zeroing cost more
// than the extra allocations save.
const maxSlabChunk = 2048

// carve returns a slice of length n.
func (s *slab[T]) carve(n int) []T {
	if len(s.free) < n {
		s.chunk = max(64, n, min(2*s.chunk, maxSlabChunk))
		s.free = make([]T, s.chunk)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// decompose enumerates the ways the cycle can be produced by actual
// messages: tilings of the cycle channels into consecutive arcs, each arc
// realized by a (src,dst) pair whose routing path traverses the arc and
// is then blocked at the next arc's first channel.
//
// Tilings are enumerated per start position first = 0..L-1: every tiling
// with a boundary at first, arcs in ring order from there. A tiling with k
// boundaries is so enumerated k times and kept only from its smallest
// boundary, i.e. when none of its arcs wraps past the end of the cycle to
// start below first. Enumeration stops once the configurations kept from
// earlier start positions plus every tiling enumerated from the current
// one, repeats included, number maxConfigs (0 = unlimited); the bool
// reports that truncation. The returned slice is valid until the next
// call; the Configurations it holds stay valid.
func (w *cycleWorker) decompose(cyc cdg.Cycle, maxConfigs int) ([]Configuration, bool) {
	for _, c := range w.cyc {
		w.pos[c] = -1
	}
	w.cyc = cyc
	for i, c := range cyc {
		w.pos[c] = int32(i)
	}
	L := len(cyc)
	w.store = &cycleStore{nodes: int32(w.idx.nodes),
		ring: append(append(w.chans.carve(2 * L)[:0], cyc...), cyc...)}
	w.indexRealizers()

	// Tile the cycle by depth-first search over (arc, realizer) picks,
	// recording members only for kept tilings.
	w.configs, w.count, w.limit, w.truncated = w.configs[:0], 0, maxConfigs, false
	for w.first = 0; w.first < L && !w.truncated; w.first++ {
		w.count = len(w.configs)
		w.tile(w.first, 0, false)
	}
	return w.configs, w.truncated
}

// indexRealizers fills the realizer buckets of the current cycle: the
// arc of length l starting at cycle position p is realized by the pairs
// whose path contains cyc[p..p+l-1] followed by cyc[(p+l)%L], entered
// from outside the cycle (the channel before cyc[p] in the path, if any,
// is not the cycle predecessor — otherwise the "member" would be a longer
// arc). It copies the runs' approaches into the store and builds the
// search's length lists and can table.
func (w *cycleWorker) indexRealizers() {
	idx, pos, L := w.idx, w.pos, int32(len(w.cyc))
	// Find every maximal run of cycle channels consistent with cyclic
	// order, from the occurrences of its first channel.
	w.runs = w.runs[:0]
	for p, c := range w.cyc {
		for _, o := range idx.occ[idx.occStart[c]:idx.occStart[c+1]] {
			path := idx.paths[o.pair]
			if o.at > 0 {
				if pp := pos[path[o.at-1]]; pp >= 0 && (pp+1)%L == int32(p) {
					continue // interior of a longer run
				}
			}
			l := int32(1)
			for int(o.at+l) < len(path) && pos[path[o.at+l]] == (int32(p)+l)%L {
				l++
			}
			// A member holding arc length a (1 <= a < l <= L) blocked at
			// cyc[(p+a)%L] requires the path to continue with that channel,
			// i.e. a < l: a one-channel run realizes nothing.
			if l > 1 {
				w.runs = append(w.runs, run{pair: o.pair, at: o.at, p: int32(p), l: l})
			}
		}
	}
	// Realizers are listed by pair, then by position on the path.
	slices.SortFunc(w.runs, func(a, b run) int {
		if a.pair != b.pair {
			return int(a.pair - b.pair)
		}
		return int(a.at - b.at)
	})
	// Run i's approach is the path before it.
	st := w.store
	st.approachAt = w.offs.carve(len(w.runs) + 1)
	for i, r := range w.runs {
		st.approachAt[i+1] = st.approachAt[i] + r.at
	}
	st.approaches = w.chans.carve(int(st.approachAt[len(w.runs)]))
	for i, r := range w.runs {
		copy(st.approaches[st.approachAt[i]:], idx.paths[r.pair][:r.at])
	}
	// Every prefix length a < l of a run is a realizable arc, all sharing
	// one approach. Count each bucket's realizers, sum the counts into
	// bucket ends, and fill the buckets back to front.
	buckets := int(L * L)
	w.bucket = append(w.bucket[:0], make([]int32, buckets+1)...)
	for _, r := range w.runs {
		for a := int32(1); a < r.l && a < L; a++ {
			w.bucket[r.p*L+a-1]++
		}
	}
	for b := 1; b < buckets; b++ {
		w.bucket[b] += w.bucket[b-1]
	}
	w.bucket[buckets] = w.bucket[buckets-1]
	w.realizers = append(w.realizers[:0], make([]realizer, w.bucket[buckets])...)
	for i := len(w.runs) - 1; i >= 0; i-- {
		r := w.runs[i]
		for a := int32(1); a < r.l && a < L; a++ {
			b := r.p*L + a - 1
			w.bucket[b]--
			w.realizers[w.bucket[b]] = realizer{pair: r.pair, approach: int32(i)}
		}
	}
	for b := 0; b < buckets; b++ {
		rs := w.realizers[w.bucket[b]:w.bucket[b+1]]
		for k := 1; k < len(rs); k++ {
			rs[k].dup = rs[k].pair == rs[k-1].pair
		}
	}

	// The lengths with realizers at each position, then can by the number
	// of channels left: n channels from p tile when some arc a <= n from p
	// leaves n-a channels from p+a that tile.
	w.lens, w.lensAt = w.lens[:0], append(w.lensAt[:0], 0)
	for p := int32(0); p < L; p++ {
		for a := int32(1); a < L; a++ {
			if b := p*L + a - 1; w.bucket[b] < w.bucket[b+1] {
				w.lens = append(w.lens, a)
			}
		}
		w.lensAt = append(w.lensAt, int32(len(w.lens)))
	}
	w.can = append(w.can[:0], make([]bool, L*(L+1))...)
	for p := int32(0); p < L; p++ {
		w.can[p*(L+1)] = true
	}
	for n := int32(1); n <= L; n++ {
		for p := int32(0); p < L; p++ {
			for _, a := range w.lens[w.lensAt[p]:w.lensAt[p+1]] {
				if a > n {
					break
				}
				if w.can[(p+a)%L*(L+1)+n-a] {
					w.can[p*(L+1)+n] = true
					break
				}
			}
		}
	}
}

// tile extends the tiling on picks, which covers covered channels; its
// next arc starts at cycle position start. It tries only arcs that leave
// a remainder the can table says tiles, so every branch it enters ends
// in at least one tiling unless the distinct-pair rule cuts it.
func (w *cycleWorker) tile(start, covered int, repeat bool) {
	L := len(w.cyc)
	if covered == L {
		if !repeat {
			w.keep()
		}
		w.count++
		w.truncated = w.limit > 0 && w.count >= w.limit
		return
	}
	// Bucket lengths are below L: a single member cannot block itself.
	left := L - covered
	for _, a := range w.lens[w.lensAt[start]:w.lensAt[start+1]] {
		if int(a) > left {
			break
		}
		next := (start + int(a)) % L
		if !w.can[next*(L+1)+left-int(a)] {
			continue
		}
		b := start*L + int(a) - 1
		for k := w.bucket[b]; k < w.bucket[b+1]; k++ {
			r := &w.realizers[k]
			// Distinct (src,dst) pairs per member.
			if w.pairUsed[r.pair] {
				continue
			}
			w.pairUsed[r.pair] = true
			w.picks = append(w.picks, memberRec{pair: r.pair, start: int32(start), length: a, approach: r.approach})
			// The next arc starts below first only after wrapping: the
			// tiling has a smaller boundary and was kept from there.
			w.tile(next, covered+int(a), repeat || r.dup || next < w.first)
			w.picks = w.picks[:len(w.picks)-1]
			w.pairUsed[r.pair] = false
			if w.truncated {
				return
			}
		}
	}
}

// keep records the tiling on picks as a configuration.
func (w *cycleWorker) keep() {
	recs := w.recs.carve(len(w.picks))
	copy(recs, w.picks)
	w.configs = append(w.configs, Configuration{store: w.store, recs: recs})
}
