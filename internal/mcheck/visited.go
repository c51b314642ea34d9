package mcheck

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// visitedShards is the stripe count of the visited set. Power of two so the
// shard index is a mask; 64 stripes keep mutex contention negligible up to
// far more workers than GOMAXPROCS will reasonably be.
const visitedShards = 64

// visitedEntryOverhead approximates the resident cost of one entry beyond
// its encoding bytes: the entry struct (slice header + budget + chain
// link) plus the amortized shard-index slot. Accounting, not allocation —
// it only feeds the memory budget and the stats surface.
const visitedEntryOverhead = 48

// visitedStore is the deduplication structure behind the search engines,
// pluggable via SearchOptions.Visited. Every backend is exact: novel and
// insert answer precisely the same questions as the in-memory reference
// (collisions verified against full encodings, budgets compared with the
// same monotone rule), so verdicts, state counts and witnesses are
// byte-identical across backends. Backends differ only in where encodings
// reside (heap or disk runs) and therefore in memory ceiling and constant
// factors.
//
// Concurrency contract (inherited from the engine): novel may be called
// from many workers concurrently, but insert, stats, size and close only
// ever run on the single merge goroutine, strictly between expansion
// phases.
type visitedStore interface {
	// hash digests an encoding. Digests are only meaningful within one
	// search (the seed is per-store), which is all the visited set needs.
	hash(enc []byte) uint64
	// novel reports whether visiting the state (enc, budget) could still
	// reach anything new: the state is unseen, or was only seen with a
	// strictly smaller stall budget. Safe for concurrent use.
	novel(h uint64, enc []byte, budget int) bool
	// insert records (enc, budget) and reports whether it was new in the
	// novel sense — exactly the condition under which the search counts a
	// state and enqueues it.
	insert(h uint64, enc []byte, budget int) bool
	// size returns the number of distinct state encodings recorded.
	size() int
	// stats fills st with the store's accounting snapshot.
	stats(st *VisitedStats)
	// close releases backend resources (spill files). The store is
	// unusable afterwards.
	close()
}

// VisitedStats is the memory-accounting snapshot of a visited-set
// backend, surfaced in SearchResult, obsv gauges and the live /progress
// stream.
type VisitedStats struct {
	// Backend names the store that ran: "mem" or "spill".
	Backend string
	// Entries is the number of distinct state encodings recorded.
	Entries int
	// Bytes is the store's resident memory: encodings + per-entry
	// overhead, plus the spill fence indexes where applicable. Spilled
	// run bytes live on disk and are NOT included.
	Bytes int64
	// PeakShardEntries is the largest per-shard distinct-entry count (the
	// high-water mark; entries are never removed, so peak = current max).
	PeakShardEntries int

	// Spill accounting (spill backend only).
	SpillBytes     int64 // bytes currently in on-disk run files
	SpillRuns      int   // run files currently live
	SpilledEntries int64 // entries currently residing in runs
	Compactions    int   // run-compaction passes performed
}

// visitedSet is the in-memory reference backend: a sharded hash map from
// a 64-bit maphash digest of a state's binary encoding to the best stall
// budget the state has been reached with. Each entry keeps the full
// encoding bytes as a collision-verification slot — two distinct states
// that collide on the 64-bit digest are chained, never conflated, so the
// search stays exact. Shards are guarded by striped RW mutexes: the
// parallel expansion phase performs lock-shared lookups from every worker,
// while insertions happen only in the single-threaded per-level merge.
type visitedSet struct {
	seed   maphash.Seed
	shards [visitedShards]visitedShard
}

type visitedShard struct {
	mu sync.RWMutex
	// index maps a digest to the head of its entry chain.
	index   map[uint64]int32
	entries []visitedEntry
	bytes   int64 // encodings + visitedEntryOverhead per entry
}

// visitedEntry records one distinct state encoding.
type visitedEntry struct {
	enc    []byte // canonical bytes; verifies the 64-bit digest match
	budget int32  // best (largest) remaining stall budget seen
	next   int32  // next entry with the same digest, -1 at chain end
}

func newVisitedSet() *visitedSet {
	v := &visitedSet{seed: maphash.MakeSeed()}
	for i := range v.shards {
		v.shards[i].index = make(map[uint64]int32)
	}
	return v
}

func (v *visitedSet) hash(enc []byte) uint64 {
	return maphash.Bytes(v.seed, enc)
}

// lookup returns the recorded budget for (h, enc), reporting whether the
// encoding is present at all. Callers hold no lock; lookup takes the
// shard read lock itself.
func (v *visitedSet) lookup(h uint64, enc []byte) (int, bool) {
	sh := &v.shards[h&(visitedShards-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := sh.index[h]
	for ok && i >= 0 {
		e := &sh.entries[i]
		if bytes.Equal(e.enc, enc) {
			return int(e.budget), true
		}
		i = e.next
	}
	return 0, false
}

func (v *visitedSet) novel(h uint64, enc []byte, budget int) bool {
	b, ok := v.lookup(h, enc)
	return !ok || b < budget
}

// insert records (enc, budget): reached-again states with a larger budget
// update in place (and still count as new: they can reach successors the
// smaller budget could not). Only the per-level merge calls insert, so
// insertion order — and with it every verdict, count and witness — is
// deterministic.
func (v *visitedSet) insert(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	head, ok := sh.index[h]
	if ok {
		for i := head; i >= 0; {
			e := &sh.entries[i]
			if bytes.Equal(e.enc, enc) {
				if int(e.budget) >= budget {
					return false
				}
				e.budget = int32(budget)
				return true
			}
			i = e.next
		}
	} else {
		head = -1
	}
	sh.entries = append(sh.entries, visitedEntry{enc: enc, budget: int32(budget), next: head})
	sh.index[h] = int32(len(sh.entries) - 1)
	sh.bytes += int64(len(enc)) + visitedEntryOverhead
	return true
}

func (v *visitedSet) size() int {
	n := 0
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

func (v *visitedSet) stats(st *VisitedStats) {
	*st = VisitedStats{Backend: "mem"}
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		n := len(sh.entries)
		st.Entries += n
		st.Bytes += sh.bytes
		if n > st.PeakShardEntries {
			st.PeakShardEntries = n
		}
		sh.mu.RUnlock()
	}
}

func (v *visitedSet) close() {}

// newVisitedStore builds the backend a normalized VisitedConfig selects.
func newVisitedStore(cfg VisitedConfig) visitedStore {
	if cfg.Backend == VisitedSpill {
		return newSpillVisited(cfg)
	}
	return newVisitedSet()
}
