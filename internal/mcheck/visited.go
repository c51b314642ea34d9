package mcheck

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"os"
	"sync"
)

// visitedShards is the stripe count of the visited set. Power of two so the
// shard index is a mask. The shards take no locks: reads and writes never
// overlap (see visitedSet's concurrency contract), so striping only bounds
// each shard's map, chains and spill runs.
const visitedShards = 64

// visitedEntryOverhead approximates the resident cost of one entry beyond
// its encoding bytes: the 24-byte entry plus its share of the slot array
// (8 bytes a slot at a load between 3/8 and 3/4) and of append's slack.
// Accounting, not allocation — it only feeds the memory budget and the
// stats surface, and a budget spills at the same points while it stays
// put.
const visitedEntryOverhead = 48

// VisitedStats is the memory-accounting snapshot of the visited set,
// surfaced in SearchResult and the mcheck_visited_* gauges.
type VisitedStats struct {
	// Backend names the store that ran: "mem" or "spill".
	Backend string
	// Entries is the number of distinct state encodings recorded.
	Entries int
	// Bytes is the store's resident memory: encodings + per-entry
	// overhead, plus the spill runs' fence indexes and fingerprints
	// where applicable. Spilled run bytes live on disk and are NOT
	// included.
	Bytes int64
	// PeakShardEntries is the largest per-shard distinct-entry count (the
	// high-water mark; entries are never removed, so peak = current max).
	PeakShardEntries int

	// Spill accounting (spill backend only).
	SpillBytes     int64 // bytes of the live runs in the segment file
	SpillRuns      int   // runs currently live
	SpilledEntries int64 // entries currently residing in runs
	Compactions    int   // run-compaction passes performed
}

// visitedSet is the deduplication structure behind the search engines: a
// sharded hash table from a 64-bit maphash digest of a state's binary
// encoding to the best stall budget the state has been reached with. Each
// entry keeps the full encoding bytes as a collision-verification slot —
// two distinct states that collide on the 64-bit digest take two slots,
// never one, so the search stays exact.
//
// Each shard's resident table holds no Go pointers: a power-of-two slot
// array probed linearly, each slot the digest's top 32 bits as a tag and
// an entry index; entries of (digest, key location, budget); and the key
// bytes in a chunked arena. The garbage collector scans none of it, and a
// spill sorts entries by their stored digests without hashing again.
//
// A store built for VisitedSpill also has a per-shard byte budget and a
// private directory holding one segment file: a shard that outgrows its
// budget appends its resident entries to the segment as one sorted run
// (spill.go) and starts over empty, and probes that miss the resident
// table fall through to the shard's runs. Runs are exact too, so
// verdicts, state counts and witnesses are byte-identical with and
// without spilling; only the memory ceiling and constant factors differ.
//
// Concurrency contract (inherited from the engine): the store is read
// and written in alternating phases and takes no locks. During an
// expansion phase many workers call novel concurrently, and nothing
// writes. insert, stats, size and close run only on the single merge
// goroutine, between expansion phases; expandBatch's WaitGroup orders
// every probe of a phase before the merge that follows it, and the
// merge before the next phase starts its workers. Runs are immutable
// once written and read with positioned reads, so concurrent probes
// share the segment safely; the segment only grows, or is replaced, in
// the merge phase.
type visitedSet struct {
	seed   maphash.Seed
	shards [visitedShards]visitedShard

	// Spilling, set only for VisitedSpill: perShard > 0 is the resident
	// byte budget of each shard and dir the directory, created by and
	// private to this store, that holds the segment.
	dir         string
	perShard    int64
	seg         *segment   // every live run's bytes; nil until the first spill
	w           runWriter  // run-writing scratch, merge goroutine only
	readers     sync.Pool  // *runReader probe scratch
	order       []spillKey // spill sort scratch, merge goroutine only
	compactions int        // merge goroutine only
}

type visitedShard struct {
	// slots indexes entries by digest: 0 is an empty slot, anything else
	// is the digest's top 32 bits over the entry's index plus one.
	// Linear probing from (digest >> 6) & (len-1), never deleted from;
	// the length is a power of two, grown to keep the load at most 3/4.
	slots   []uint64
	entries []visitedEntry
	keys    keyArena // owns every resident entry's encoding bytes
	bytes   int64    // resident encodings + visitedEntryOverhead per entry

	distinct   int         // distinct encodings ever recorded (resident + runs)
	runs       []*spillRun // oldest first; probes scan newest first
	runBytes   int64
	runEntries int64 // entries residing in runs (incl. superseded dups)
	fenceBytes int64 // fence indexes and fingerprints of the runs
}

// visitedEntry records one resident state encoding.
type visitedEntry struct {
	h      uint64 // the encoding's digest
	key    keyRef // the canonical bytes; verify a digest match
	budget int32  // best (largest) remaining stall budget seen
}

// visitedMinSlots is a shard's slot count at its first insert.
const visitedMinSlots = 16

// newVisitedSet builds the store a normalized VisitedConfig selects.
func newVisitedSet(cfg VisitedConfig) *visitedSet {
	v := &visitedSet{seed: maphash.MakeSeed()}
	if cfg.Backend == VisitedSpill {
		dir, err := os.MkdirTemp(cfg.SpillDir, "mcheck-spill-*")
		if err != nil {
			panic(fmt.Sprintf("mcheck: spill backend: creating spill directory: %v", err))
		}
		v.dir = dir
		v.perShard = max(cfg.MemBudget/visitedShards, 1<<10)
	}
	return v
}

// hash digests an encoding. Digests are only meaningful within one search
// (the seed is per-store), which is all the visited set needs.
func (v *visitedSet) hash(enc []byte) uint64 {
	return maphash.Bytes(v.seed, enc)
}

// find returns the index of enc's resident entry under digest h, or -1
// and the empty slot where the probe for it ended (-1 when the shard has
// no slots yet).
func (sh *visitedShard) find(h uint64, enc []byte) (i int32, slot int) {
	if len(sh.slots) == 0 {
		return -1, -1
	}
	mask := len(sh.slots) - 1
	tag := h >> 32
	for p := int(h>>6) & mask; ; p = (p + 1) & mask {
		s := sh.slots[p]
		if s == 0 {
			return -1, p
		}
		if s>>32 != tag {
			continue
		}
		i := int32(uint32(s)) - 1
		if e := &sh.entries[i]; e.h == h && bytes.Equal(sh.keys.at(e.key), enc) {
			return i, p
		}
	}
}

// add appends a new resident entry, growing the slot array first when
// the entry would take the load past 3/4; slot is find's empty slot for
// h, valid only while the slots stay as they are.
func (sh *visitedShard) add(h uint64, enc []byte, budget int, slot int) {
	if 4*(len(sh.entries)+1) > 3*len(sh.slots) {
		sh.growSlots()
		_, slot = sh.find(h, enc)
	}
	sh.entries = append(sh.entries, visitedEntry{h: h, key: sh.keys.copy(enc), budget: int32(budget)})
	sh.slots[slot] = h>>32<<32 | uint64(len(sh.entries))
	sh.bytes += int64(len(enc)) + visitedEntryOverhead
}

// growSlots doubles the slot array and re-places every entry from its
// stored digest.
func (sh *visitedShard) growSlots() {
	sh.slots = make([]uint64, max(2*len(sh.slots), visitedMinSlots))
	mask := len(sh.slots) - 1
	for i := range sh.entries {
		h := sh.entries[i].h
		p := int(h>>6) & mask
		for sh.slots[p] != 0 {
			p = (p + 1) & mask
		}
		sh.slots[p] = h>>32<<32 | uint64(i+1)
	}
}

// novel reports whether visiting the state (enc, budget) could still
// reach anything new: the state is unseen, or was only seen with a
// strictly smaller stall budget. Safe for concurrent use with other
// novel calls, but not with insert, stats or close.
func (v *visitedSet) novel(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	if i, _ := sh.find(h, enc); i >= 0 {
		return int(sh.entries[i].budget) < budget
	}
	b, ok := v.lookupRuns(sh, h, enc)
	return !ok || int(b) < budget
}

// insert records (enc, budget) and reports whether it was new in the
// novel sense — exactly the condition under which the search counts a
// state and enqueues it. Reached-again states with a larger budget
// update in place (and still count as new: they can reach successors the
// smaller budget could not); a budget upgrade of a spilled encoding
// re-enters the resident table as a shadow record that every later probe
// sees before the run copy. Only the per-level merge calls insert, so
// insertion order — and with it every verdict, count and witness — is
// deterministic. The store copies enc into memory it owns, so the caller
// may reuse the slice as soon as insert returns.
func (v *visitedSet) insert(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	i, slot := sh.find(h, enc)
	if i >= 0 {
		e := &sh.entries[i]
		if int(e.budget) >= budget {
			return false
		}
		e.budget = int32(budget)
		return true
	}
	b, spilled := v.lookupRuns(sh, h, enc)
	if spilled && int(b) >= budget {
		return false
	}
	sh.add(h, enc, budget, slot)
	if !spilled {
		sh.distinct++
	}
	if v.perShard > 0 && sh.bytes > v.perShard && len(sh.entries) >= spillMinSpillEntries {
		v.spill(sh)
		if len(sh.runs) > spillMaxRuns {
			v.compact(sh)
		}
	}
	return true
}

// size returns the number of distinct state encodings recorded.
func (v *visitedSet) size() int {
	n := 0
	for i := range v.shards {
		n += v.shards[i].distinct
	}
	return n
}

// stats fills st with the store's accounting snapshot.
func (v *visitedSet) stats(st *VisitedStats) {
	*st = VisitedStats{Backend: VisitedMem.String(), Compactions: v.compactions}
	if v.perShard > 0 {
		st.Backend = VisitedSpill.String()
	}
	for i := range v.shards {
		sh := &v.shards[i]
		st.Entries += sh.distinct
		st.Bytes += sh.bytes + sh.fenceBytes
		st.PeakShardEntries = max(st.PeakShardEntries, sh.distinct)
		st.SpillBytes += sh.runBytes
		st.SpillRuns += len(sh.runs)
		st.SpilledEntries += sh.runEntries
	}
}

// close removes the segment and the store's directory. The store is
// unusable afterwards.
func (v *visitedSet) close() {
	if v.dir == "" {
		return
	}
	for i := range v.shards {
		v.shards[i].runs = nil
	}
	if v.seg != nil {
		v.seg.f.Close()
		v.seg = nil
	}
	os.RemoveAll(v.dir)
}

// keyArena copies encodings into chunked byte slabs, so a store owns the
// bytes it keeps at the cost of an allocation per chunk, not per entry,
// and an entry names its bytes by position rather than by pointer.
// Chunks double from keyChunkMin to keyChunkMax bytes, so a shard that
// keeps a few keys stays small.
type keyArena struct {
	chunks [][]byte
}

// keyRef locates one copy in a keyArena.
type keyRef struct {
	chunk, off, n uint32
}

const (
	keyChunkMin = 256
	keyChunkMax = 64 << 10
	// keyChunksMin is the chunk list's first capacity: enough for the
	// doubling run from keyChunkMin to keyChunkMax, so a shard's list
	// rarely grows.
	keyChunksMin = 10
)

// copy copies b into arena memory and returns its location.
func (a *keyArena) copy(b []byte) keyRef {
	c := len(a.chunks) - 1
	if c < 0 || cap(a.chunks[c])-len(a.chunks[c]) < len(b) {
		last := 0
		if c >= 0 {
			last = cap(a.chunks[c])
		}
		if a.chunks == nil {
			a.chunks = make([][]byte, 0, keyChunksMin)
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(len(b), keyChunkMin, min(2*last, keyChunkMax))))
		c++
	}
	off := len(a.chunks[c])
	a.chunks[c] = append(a.chunks[c], b...)
	return keyRef{chunk: uint32(c), off: uint32(off), n: uint32(len(b))}
}

// at returns the copy at r, capacity-limited so that no append to it
// can reach a neighbour's bytes.
func (a *keyArena) at(r keyRef) []byte {
	return a.chunks[r.chunk][r.off : r.off+r.n : r.off+r.n]
}

// reset drops every chunk but the newest and makes its whole capacity
// reusable, so a shard that spills settles at one chunk instead of
// allocating per spill. Every keyRef is invalid afterwards.
func (a *keyArena) reset() {
	n := len(a.chunks)
	if n == 0 {
		return
	}
	last := a.chunks[n-1][:0]
	clear(a.chunks)
	a.chunks = append(a.chunks[:0], last)
}
