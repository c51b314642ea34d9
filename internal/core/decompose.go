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
// tiling of a CDG cycle by member arcs, in ring order. Each member is a
// 4-byte index into its cycle's realizer table; Member builds its view.
type Configuration struct {
	store   *cycleStore
	members []int32
}

// Len returns the number of members.
func (c Configuration) Len() int { return len(c.members) }

// Member returns member j, in ring order. It does not allocate.
func (c Configuration) Member(j int) Member {
	s := c.store
	r := s.realizers[c.members[j]]
	end := r.start + r.length
	return Member{Src: topology.NodeID(r.pair / s.nodes), Dst: topology.NodeID(r.pair % s.nodes),
		Arc: s.ring[r.start:end:end], Approach: s.approach(r.approach)}
}

// cycleStore holds what the members of one cycle's configurations view:
// the cycle twice over, which arcs are subslices of; the approach of every
// run of the cycle on a path, approaches[approachAt[i]:approachAt[i+1]]
// for run i; every realizer of an arc of the cycle; and the members of
// the configurations its report keeps, as indices into realizers. Each
// cycle gets a fresh store, every array sized exactly.
type cycleStore struct {
	ring, approaches []topology.ChannelID
	approachAt       []int32
	realizers        []realizer
	members          []int32
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

// realizer is a (src, dst) pair s*nodes+d whose path realizes the arc
// ring[start:start+length] of its cycle after the approach of run number
// approach.
type realizer struct {
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

// run is a maximal run of l consecutive cycle channels on pair's path,
// starting at path position at and cycle position p.
type run struct {
	pair, at, p, l int32
}

// cycleWorker decomposes and classifies cycles one after another, on
// scratch reused from cycle to cycle. Reports view only each cycle's
// store, which is fresh, and the worker's verdict tables, which only
// grow, so they outlive the worker.
type cycleWorker struct {
	idx *pathIndex
	// cyc is the current cycle, and pos[c] is channel c's position on it,
	// or -1.
	cyc cdg.Cycle
	pos []int32

	runs []run
	// The realizers of the arc of length l at cycle position p are
	// store.realizers[bucket[b]:bucket[b+1]], b = p*L+l-1, ordered by
	// pair and then by position on the pair's path. dup[k] marks a later
	// run of realizer k's path realizing the same arc; tilings through it
	// repeat those through the earlier run.
	bucket []int32
	dup    []bool
	// lens[lensAt[p]:lensAt[p+1]] are the ascending arc lengths at cycle
	// position p with a realizer, and can[p*(L+1)+n] reports that such
	// arcs tile the n channels from position p, ignoring the
	// distinct-pair rule.
	lens, lensAt []int32
	can          []bool

	// Tiling search state: picks are the realizers of the tiling under
	// construction, pairUsed marks their pairs. Kept tilings append their
	// picks to members and their end offset to ends; configs views them.
	store               *cycleStore
	picks               []int32
	pairUsed            []bool
	members, ends       []int32
	configs             []Configuration
	first, count, limit int
	truncated           bool

	// Classifier scratch: seen[c] is the stamp of the last member whose
	// approach used c; every member of every configuration gets a fresh,
	// larger stamp. entrants and key hold the configuration's TheoremN
	// input and its encoding.
	seen     []uint32
	stamp    uint32
	entrants []unreachable.Entrant
	key      []byte
	// Classifier state kept across cycles: onCycle[c] is the reason for
	// an approach through cycle channel c once interned (0 before),
	// blockable interns the blockability reasons, memo holds TheoremN's
	// record per encoded entrant list, and tables holds the reasons and
	// witnesses that records index.
	onCycle   []int32
	blockable map[string]int32
	memo      map[string]ConfigRecord
	tables    *verdictTables
}

func newCycleWorker(idx *pathIndex) *cycleWorker {
	w := &cycleWorker{
		idx:       idx,
		pos:       make([]int32, idx.net.NumChannels()),
		pairUsed:  make([]bool, len(idx.paths)),
		seen:      make([]uint32, idx.net.NumChannels()),
		onCycle:   make([]int32, idx.net.NumChannels()),
		blockable: map[string]int32{},
		memo:      map[string]ConfigRecord{},
		tables:    newVerdictTables(),
	}
	for c := range w.pos {
		w.pos[c] = -1
	}
	return w
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
// reports that truncation. The Configurations returned view the worker's
// scratch and are valid only until the next call; analyzeCycle copies
// their members into the cycle's store for the report.
func (w *cycleWorker) decompose(cyc cdg.Cycle, maxConfigs int) ([]Configuration, bool) {
	for _, c := range w.cyc {
		w.pos[c] = -1
	}
	w.cyc = cyc
	for i, c := range cyc {
		w.pos[c] = int32(i)
	}
	w.store = &cycleStore{nodes: int32(w.idx.nodes)}
	w.indexRealizers()

	// Tile the cycle by depth-first search over (arc, realizer) picks,
	// recording members only for kept tilings.
	w.members, w.ends, w.count, w.limit, w.truncated = w.members[:0], w.ends[:0], 0, maxConfigs, false
	for w.first = 0; w.first < len(cyc) && !w.truncated; w.first++ {
		w.count = len(w.ends)
		w.tile(w.first, 0, false)
	}
	w.configs = w.configs[:0]
	from := int32(0)
	for _, to := range w.ends {
		w.configs = append(w.configs, Configuration{store: w.store, members: w.members[from:to:to]})
		from = to
	}
	return w.configs, w.truncated
}

// indexRealizers fills the realizer buckets of the current cycle: the
// arc of length l starting at cycle position p is realized by the pairs
// whose path contains cyc[p..p+l-1] followed by cyc[(p+l)%L], entered
// from outside the cycle (the channel before cyc[p] in the path, if any,
// is not the cycle predecessor — otherwise the "member" would be a longer
// arc). It fills the store's ring, approaches and realizer table, and
// builds the search's length lists and can table.
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
	// The ring is the cycle twice over, and run i's approach is the path
	// before it; both go to one array.
	st := w.store
	st.approachAt = make([]int32, len(w.runs)+1)
	for i, r := range w.runs {
		st.approachAt[i+1] = st.approachAt[i] + r.at
	}
	chans := make([]topology.ChannelID, 2*L+st.approachAt[len(w.runs)])
	copy(chans[copy(chans, w.cyc):], w.cyc)
	st.ring, st.approaches = chans[:2*L:2*L], chans[2*L:]
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
	st.realizers = make([]realizer, w.bucket[buckets])
	for i := len(w.runs) - 1; i >= 0; i-- {
		r := w.runs[i]
		for a := int32(1); a < r.l && a < L; a++ {
			b := r.p*L + a - 1
			w.bucket[b]--
			st.realizers[w.bucket[b]] = realizer{pair: r.pair, start: r.p, length: a, approach: int32(i)}
		}
	}
	w.dup = append(w.dup[:0], make([]bool, len(st.realizers))...)
	for b := 0; b < buckets; b++ {
		for k := w.bucket[b] + 1; k < w.bucket[b+1]; k++ {
			w.dup[k] = st.realizers[k].pair == st.realizers[k-1].pair
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
			pair := w.store.realizers[k].pair
			// Distinct (src,dst) pairs per member.
			if w.pairUsed[pair] {
				continue
			}
			w.pairUsed[pair] = true
			w.picks = append(w.picks, k)
			// The next arc starts below first only after wrapping: the
			// tiling has a smaller boundary and was kept from there.
			w.tile(next, covered+int(a), repeat || w.dup[k] || next < w.first)
			w.picks = w.picks[:len(w.picks)-1]
			w.pairUsed[pair] = false
			if w.truncated {
				return
			}
		}
	}
}

// keep records the tiling on picks as a configuration.
func (w *cycleWorker) keep() {
	w.members = append(w.members, w.picks...)
	w.ends = append(w.ends, int32(len(w.members)))
}
