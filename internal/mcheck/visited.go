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
// its encoding bytes: the entry struct (slice header + budget + chain
// link) plus the amortized shard-index slot. Accounting, not allocation —
// it only feeds the memory budget and the stats surface.
const visitedEntryOverhead = 48

// VisitedStats is the memory-accounting snapshot of the visited set,
// surfaced in SearchResult, obsv gauges and the live /progress stream.
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

// visitedSet is the deduplication structure behind the search engines: a
// sharded hash map from a 64-bit maphash digest of a state's binary
// encoding to the best stall budget the state has been reached with. Each
// entry keeps the full encoding bytes as a collision-verification slot —
// two distinct states that collide on the 64-bit digest are chained,
// never conflated, so the search stays exact.
//
// A store built for VisitedSpill also has a per-shard byte budget and a
// private run directory: a shard that outgrows its budget writes its
// resident entries to disk as one sorted run (spill.go) and starts over
// empty, and probes that miss the resident chain fall through to the
// shard's runs. Runs are exact too, so verdicts, state counts and
// witnesses are byte-identical with and without spilling; only the
// memory ceiling and constant factors differ.
//
// Concurrency contract (inherited from the engine): the store is read
// and written in alternating phases and takes no locks. During an
// expansion phase many workers call novel concurrently, and nothing
// writes. insert, stats, size and close run only on the single merge
// goroutine, between expansion phases; expandBatch's WaitGroup orders
// every probe of a phase before the merge that follows it, and the
// merge before the next phase starts its workers. Run files are
// immutable once written and read with positioned reads, so concurrent
// probes share them safely.
type visitedSet struct {
	seed   maphash.Seed
	shards [visitedShards]visitedShard

	// Spilling, set only for VisitedSpill: perShard > 0 is the resident
	// byte budget of each shard and dir the run-file directory, created
	// by and private to this store.
	dir         string
	perShard    int64
	readers     sync.Pool  // *runReader probe scratch
	order       []spillKey // spill sort scratch, merge goroutine only
	compactions int        // merge goroutine only
}

type visitedShard struct {
	// index maps a digest to the head of its resident entry chain.
	index   map[uint64]int32
	entries []visitedEntry
	keys    keyArena // owns every resident entry's encoding bytes
	bytes   int64    // resident encodings + visitedEntryOverhead per entry

	distinct   int         // distinct encodings ever recorded (resident + runs)
	runs       []*spillRun // oldest first; probes scan newest first
	runBytes   int64
	runEntries int64 // entries residing in runs (incl. superseded dups)
	fenceBytes int64
}

// visitedEntry records one resident state encoding.
type visitedEntry struct {
	enc    []byte // canonical bytes; verifies the 64-bit digest match
	budget int32  // best (largest) remaining stall budget seen
	next   int32  // next entry with the same digest, -1 at chain end
}

// newVisitedSet builds the store a normalized VisitedConfig selects.
func newVisitedSet(cfg VisitedConfig) *visitedSet {
	v := &visitedSet{seed: maphash.MakeSeed()}
	for i := range v.shards {
		v.shards[i].index = make(map[uint64]int32)
	}
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

// find returns the index of enc's resident entry under digest h, or -1,
// and the head of h's chain, or -1.
func (sh *visitedShard) find(h uint64, enc []byte) (i, head int32) {
	head, ok := sh.index[h]
	if !ok {
		return -1, -1
	}
	for i = head; i >= 0; i = sh.entries[i].next {
		if bytes.Equal(sh.entries[i].enc, enc) {
			return i, head
		}
	}
	return -1, head
}

// lookupRuns probes the shard's runs newest-first, so the freshest
// record of an encoding wins. The run list changes only in the merge
// phase, so it is fixed for the whole expansion phase.
func (v *visitedSet) lookupRuns(sh *visitedShard, h uint64, enc []byte) (int32, bool) {
	if len(sh.runs) == 0 {
		return 0, false
	}
	rd := v.getReader()
	defer v.readers.Put(rd)
	for i := len(sh.runs) - 1; i >= 0; i-- {
		if b, ok := sh.runs[i].lookup(h, enc, rd); ok {
			return b, true
		}
	}
	return 0, false
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
// re-enters the resident chain as a shadow record that every later probe
// sees before the run copy. Only the per-level merge calls insert, so
// insertion order — and with it every verdict, count and witness — is
// deterministic. The store copies enc into memory it owns, so the caller
// may reuse the slice as soon as insert returns.
func (v *visitedSet) insert(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	i, head := sh.find(h, enc)
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
	sh.entries = append(sh.entries, visitedEntry{enc: sh.keys.copy(enc), budget: int32(budget), next: head})
	sh.index[h] = int32(len(sh.entries) - 1)
	sh.bytes += int64(len(enc)) + visitedEntryOverhead
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

// close removes the run files. The store is unusable afterwards.
func (v *visitedSet) close() {
	if v.dir == "" {
		return
	}
	for i := range v.shards {
		sh := &v.shards[i]
		for _, r := range sh.runs {
			r.f.Close()
		}
		sh.runs = nil
	}
	os.RemoveAll(v.dir)
}

// keyArena copies encodings into chunked byte slabs, so a store owns the
// bytes it keeps at the cost of an allocation per chunk, not per entry.
// Chunks double from keyChunkMin to keyChunkMax bytes, so a shard that
// keeps a few keys stays small; a full chunk stays alive as long as an
// entry references it.
type keyArena struct {
	chunk []byte
}

const (
	keyChunkMin = 256
	keyChunkMax = 64 << 10
)

// copy returns a copy of b in arena memory, capacity-limited so that no
// append to it can reach a neighbour's bytes.
func (a *keyArena) copy(b []byte) []byte {
	if cap(a.chunk)-len(a.chunk) < len(b) {
		a.chunk = make([]byte, 0, max(len(b), keyChunkMin, min(2*cap(a.chunk), keyChunkMax)))
	}
	lo := len(a.chunk)
	a.chunk = append(a.chunk, b...)
	return a.chunk[lo:len(a.chunk):len(a.chunk)]
}

// reset makes the current chunk's whole capacity reusable. Only a caller
// that no longer references any copy may call it.
func (a *keyArena) reset() { a.chunk = a.chunk[:0] }
