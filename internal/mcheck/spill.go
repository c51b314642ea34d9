package mcheck

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"sync"
)

// spillVisited is the disk-spillable backend: each of the 64 shards keeps
// a bounded in-memory portion (same chained-hash structure as the
// reference set), and when a shard crosses its byte budget the resident
// entries are sorted by (digest, encoding) and written out as one
// immutable, prefix-compressed run file with an in-memory fence index.
// novel/insert probe memory first, then the shard's runs newest-first via
// positioned reads (pread), so the answer every probe returns is exactly
// the reference backend's: runs are snapshots and the freshest record of
// an encoding — a later budget upgrade lands in memory or in a newer run
// — always shadows older ones. When a shard accumulates too many runs
// they are k-way merged into one, keeping the newest record of each
// encoding, which bounds both lookup fan-out and disk growth.
//
// The result is a search whose resident set is O(MemBudget + fence
// indexes) regardless of state count; only the run files grow, at the
// (compressed) size of the distinct encodings. Disk I/O failures are
// unrecoverable mid-search and panic with context.
//
// Concurrency: insert/spill/compaction run only on the merge goroutine
// under the shard write lock; concurrent novel calls hold the read lock,
// and run files are immutable once written (os.File.ReadAt is safe for
// concurrent use), so readers never see a run mid-construction.
type spillVisited struct {
	seed     maphash.Seed
	dir      string // run-file directory, created by and private to this store
	perShard int64  // in-memory byte budget per shard
	shards   [visitedShards]spillShard

	readers     sync.Pool // *runReader lookup scratch
	compactions int       // merge-goroutine only
}

type spillShard struct {
	mu      sync.RWMutex
	index   map[uint64]int32
	entries []spillEntry
	bytes   int64 // resident bytes of the in-memory portion

	distinct   int         // distinct encodings ever recorded (mem + runs)
	runs       []*spillRun // oldest first; lookups scan newest first
	runBytes   int64
	runEntries int64 // entries residing in runs (incl. superseded dups)
	fenceBytes int64
}

// spillEntry is one in-memory record; unlike visitedEntry it carries its
// digest so a shard can be sorted and spilled without re-hashing.
type spillEntry struct {
	h      uint64
	enc    []byte
	budget int32
	next   int32
}

// spillRun is one immutable sorted run file plus its fence index: the
// digest and byte offset of every restart block, enough to land a lookup
// on the one or two blocks that can contain a digest.
type spillRun struct {
	f     *os.File
	size  int64
	fence []runFence
	count int
}

type runFence struct {
	h   uint64
	off int64
}

const (
	// spillBlockEntries is the restart interval: each block's first entry
	// is written in full, subsequent entries delta-encode their digest and
	// share a varint-length prefix with their predecessor.
	spillBlockEntries = 64
	// spillMaxRuns triggers a shard compaction: probes touch at most this
	// many runs plus the in-memory portion.
	spillMaxRuns = 6
	// spillMinSpillEntries keeps a pathological byte budget from emitting
	// near-empty runs.
	spillMinSpillEntries = 16
	spillFenceOverhead   = 16 // bytes per runFence
)

func newSpillVisited(cfg VisitedConfig) *spillVisited {
	dir, err := os.MkdirTemp(cfg.SpillDir, "mcheck-spill-*")
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: creating spill directory: %v", err))
	}
	per := cfg.MemBudget / visitedShards
	if per < 1<<10 {
		per = 1 << 10
	}
	v := &spillVisited{seed: maphash.MakeSeed(), dir: dir, perShard: per}
	for i := range v.shards {
		v.shards[i].index = make(map[uint64]int32)
	}
	return v
}

func (v *spillVisited) hash(enc []byte) uint64 {
	return maphash.Bytes(v.seed, enc)
}

// memLookup walks the in-memory chain for (h, enc). Caller holds the
// shard lock (either mode).
func (sh *spillShard) memLookup(h uint64, enc []byte) (int32, bool) {
	i, ok := sh.index[h]
	for ok && i >= 0 {
		e := &sh.entries[i]
		if bytes.Equal(e.enc, enc) {
			return e.budget, true
		}
		i = e.next
	}
	return 0, false
}

// lookupRuns probes the shard's runs newest-first. Caller holds the shard
// lock (either mode), which pins the run list; file reads are positioned
// and lock-free.
func (sh *spillShard) lookupRuns(h uint64, enc []byte, rd *runReader) (int32, bool) {
	for i := len(sh.runs) - 1; i >= 0; i-- {
		if b, ok := sh.runs[i].lookup(h, enc, rd); ok {
			return b, true
		}
	}
	return 0, false
}

// addEntry appends (h, enc, budget) to the in-memory portion. Caller
// holds the write lock and has established the encoding is not resident.
func (sh *spillShard) addEntry(h uint64, enc []byte, budget int) {
	head, ok := sh.index[h]
	if !ok {
		head = -1
	}
	sh.entries = append(sh.entries, spillEntry{h: h, enc: enc, budget: int32(budget), next: head})
	sh.index[h] = int32(len(sh.entries) - 1)
	sh.bytes += int64(len(enc)) + visitedEntryOverhead
}

func (v *spillVisited) novel(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if b, ok := sh.memLookup(h, enc); ok {
		return int(b) < budget
	}
	if len(sh.runs) == 0 {
		return true
	}
	rd := v.getReader()
	b, ok := sh.lookupRuns(h, enc, rd)
	v.putReader(rd)
	if ok {
		return int(b) < budget
	}
	return true
}

func (v *spillVisited) insert(h uint64, enc []byte, budget int) bool {
	sh := &v.shards[h&(visitedShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.index[h]; ok {
		for i >= 0 {
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
	}
	found := false
	if len(sh.runs) > 0 {
		rd := v.getReader()
		b, ok := sh.lookupRuns(h, enc, rd)
		v.putReader(rd)
		if ok {
			if int(b) >= budget {
				return false
			}
			// Budget upgrade of a spilled encoding: the new record lives in
			// memory and shadows the run copy at every future probe.
			found = true
		}
	}
	sh.addEntry(h, enc, budget)
	if !found {
		sh.distinct++
	}
	if sh.bytes > v.perShard && len(sh.entries) >= spillMinSpillEntries {
		v.spill(sh)
		if len(sh.runs) > spillMaxRuns {
			v.compact(sh)
		}
	}
	return true
}

// spill sorts the shard's resident entries by (digest, encoding) and
// writes them as one new run, then resets the in-memory portion. Caller
// holds the write lock.
func (v *spillVisited) spill(sh *spillShard) {
	sort.Slice(sh.entries, func(i, j int) bool {
		a, b := &sh.entries[i], &sh.entries[j]
		if a.h != b.h {
			return a.h < b.h
		}
		return bytes.Compare(a.enc, b.enc) < 0
	})
	f, err := os.CreateTemp(v.dir, "run-*.spill")
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: creating run file: %v", err))
	}
	w := newRunWriter(f)
	for i := range sh.entries {
		e := &sh.entries[i]
		w.add(e.h, e.enc, e.budget)
	}
	run := w.finish()
	sh.runs = append(sh.runs, run)
	sh.runBytes += run.size
	sh.runEntries += int64(run.count)
	sh.fenceBytes += int64(len(run.fence)) * spillFenceOverhead
	for k := range sh.index {
		delete(sh.index, k)
	}
	sh.entries = sh.entries[:0]
	sh.bytes = 0
}

// compact k-way-merges every run of the shard into one, keeping the
// newest record of each (digest, encoding) and dropping superseded
// duplicates. Caller holds the write lock.
func (v *spillVisited) compact(sh *spillShard) {
	cursors := make([]*runCursor, len(sh.runs))
	for i, r := range sh.runs {
		cursors[i] = newRunCursor(r)
		cursors[i].next() // prime; every run has >= 1 entry
	}
	f, err := os.CreateTemp(v.dir, "run-*.spill")
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: creating compaction file: %v", err))
	}
	w := newRunWriter(f)
	var keyEnc []byte
	for {
		// Pick the smallest live (h, enc); among equal keys the newest run
		// (highest index) wins and the stale copies are skipped.
		best := -1
		for i, c := range cursors {
			if c.done {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := cursors[best]
			if c.h < b.h || (c.h == b.h && bytes.Compare(c.cur, b.cur) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Newest-wins among duplicates: scan above best for the same key.
		winner := best
		for i := best + 1; i < len(cursors); i++ {
			c := cursors[i]
			if !c.done && c.h == cursors[best].h && bytes.Equal(c.cur, cursors[best].cur) {
				winner = i
			}
		}
		// Snapshot the key before advancing anything: every cursor's cur is
		// scratch that mutates on next(), and comparing later cursors
		// against an already-advanced winner would skip their next key.
		keyH := cursors[winner].h
		keyEnc = append(keyEnc[:0], cursors[winner].cur...)
		w.add(keyH, keyEnc, cursors[winner].budget)
		for i := best; i < len(cursors); i++ {
			c := cursors[i]
			if !c.done && c.h == keyH && bytes.Equal(c.cur, keyEnc) {
				c.next()
			}
		}
	}
	merged := w.finish()
	for _, r := range sh.runs {
		name := r.f.Name()
		r.f.Close()
		os.Remove(name)
	}
	sh.runs = append(sh.runs[:0], merged)
	sh.runBytes = merged.size
	sh.runEntries = int64(merged.count)
	sh.fenceBytes = int64(len(merged.fence)) * spillFenceOverhead
	v.compactions++
}

func (v *spillVisited) size() int {
	n := 0
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		n += sh.distinct
		sh.mu.RUnlock()
	}
	return n
}

func (v *spillVisited) stats(st *VisitedStats) {
	*st = VisitedStats{Backend: "spill", Compactions: v.compactions}
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		st.Entries += sh.distinct
		st.Bytes += sh.bytes + sh.fenceBytes
		if sh.distinct > st.PeakShardEntries {
			st.PeakShardEntries = sh.distinct
		}
		st.SpillBytes += sh.runBytes
		st.SpillRuns += len(sh.runs)
		st.SpilledEntries += sh.runEntries
		sh.mu.RUnlock()
	}
}

func (v *spillVisited) close() {
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.Lock()
		for _, r := range sh.runs {
			r.f.Close()
		}
		sh.runs = nil
		sh.mu.Unlock()
	}
	os.RemoveAll(v.dir)
}

func (v *spillVisited) getReader() *runReader {
	if x := v.readers.Get(); x != nil {
		return x.(*runReader)
	}
	return &runReader{}
}

func (v *spillVisited) putReader(rd *runReader) { v.readers.Put(rd) }

// --- run file format ---------------------------------------------------
//
// A run is a sequence of blocks of up to spillBlockEntries entries, each
// entry:
//
//	uvarint digest delta (block-first entry: the full digest)
//	uvarint budget
//	uvarint shared   (prefix length shared with the previous entry; 0 at
//	                  a block start)
//	uvarint suffixLen, then suffixLen encoding bytes
//
// Entries are sorted by (digest, encoding), so digest deltas are
// non-negative and neighbouring state encodings — which differ in a few
// trailing counters far more often than anywhere else under a sorted
// digest tie — compress against each other. The fence index holds one
// (digest, offset) pair per block.

type runWriter struct {
	f      *os.File
	bw     *bufio.Writer
	fence  []runFence
	count  int
	blockN int
	off    int64
	prevH  uint64
	prev   []byte
	tmp    [binary.MaxVarintLen64]byte
}

func newRunWriter(f *os.File) *runWriter {
	return &runWriter{f: f, bw: bufio.NewWriter(f)}
}

func (w *runWriter) uvarint(x uint64) {
	n := binary.PutUvarint(w.tmp[:], x)
	if _, err := w.bw.Write(w.tmp[:n]); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: writing run: %v", err))
	}
	w.off += int64(n)
}

func (w *runWriter) add(h uint64, enc []byte, budget int32) {
	if w.blockN == spillBlockEntries {
		w.blockN = 0
	}
	if w.blockN == 0 {
		w.fence = append(w.fence, runFence{h: h, off: w.off})
		w.prevH = 0
		w.prev = w.prev[:0]
	}
	w.uvarint(h - w.prevH)
	w.uvarint(uint64(budget))
	shared := 0
	for shared < len(w.prev) && shared < len(enc) && w.prev[shared] == enc[shared] {
		shared++
	}
	w.uvarint(uint64(shared))
	w.uvarint(uint64(len(enc) - shared))
	if _, err := w.bw.Write(enc[shared:]); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: writing run: %v", err))
	}
	w.off += int64(len(enc) - shared)
	w.prevH = h
	w.prev = append(w.prev[:0], enc...)
	w.blockN++
	w.count++
}

func (w *runWriter) finish() *spillRun {
	if err := w.bw.Flush(); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: flushing run: %v", err))
	}
	return &spillRun{f: w.f, size: w.off, fence: w.fence, count: w.count}
}

// runReader is the pooled per-lookup scratch: one block buffer and one
// entry-reconstruction buffer.
type runReader struct {
	block []byte
	cur   []byte
}

// lookup finds (h, enc) in the run. The fence index narrows the scan to
// the block run of candidate digests; blocks are fetched with positioned
// reads, so concurrent lookups share the immutable file safely.
func (r *spillRun) lookup(h uint64, enc []byte, rd *runReader) (int32, bool) {
	bi := sort.Search(len(r.fence), func(i int) bool { return r.fence[i].h > h }) - 1
	if bi < 0 {
		return 0, false
	}
	// Equal digests can span a block boundary; back up over blocks that
	// START at h, since the sequence may begin in an earlier one.
	for bi > 0 && r.fence[bi].h == h {
		bi--
	}
	for ; bi < len(r.fence); bi++ {
		if r.fence[bi].h > h {
			return 0, false
		}
		start := r.fence[bi].off
		end := r.size
		if bi+1 < len(r.fence) {
			end = r.fence[bi+1].off
		}
		if int64(cap(rd.block)) < end-start {
			rd.block = make([]byte, end-start)
		}
		rd.block = rd.block[:end-start]
		if _, err := r.f.ReadAt(rd.block, start); err != nil {
			panic(fmt.Sprintf("mcheck: spill backend: reading run block: %v", err))
		}
		pos := 0
		var prevH uint64
		rd.cur = rd.cur[:0]
		for pos < len(rd.block) {
			dh, n := binary.Uvarint(rd.block[pos:])
			pos += n
			budget, n := binary.Uvarint(rd.block[pos:])
			pos += n
			shared, n := binary.Uvarint(rd.block[pos:])
			pos += n
			slen, n := binary.Uvarint(rd.block[pos:])
			pos += n
			if n <= 0 || pos+int(slen) > len(rd.block) || int(shared) > len(rd.cur) {
				panic("mcheck: spill backend: corrupt run block")
			}
			eh := prevH + dh
			rd.cur = append(rd.cur[:shared], rd.block[pos:pos+int(slen)]...)
			pos += int(slen)
			prevH = eh
			if eh > h {
				return 0, false
			}
			if eh == h && bytes.Equal(rd.cur, enc) {
				return int32(budget), true
			}
		}
	}
	return 0, false
}

// runCursor streams a run's entries in order for compaction.
type runCursor struct {
	br     *bufio.Reader
	left   int
	blockN int
	prevH  uint64
	h      uint64
	budget int32
	cur    []byte
	done   bool
}

func newRunCursor(r *spillRun) *runCursor {
	if _, err := r.f.Seek(0, 0); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: seeking run: %v", err))
	}
	return &runCursor{br: bufio.NewReader(r.f), left: r.count}
}

func (c *runCursor) next() bool {
	if c.left == 0 {
		c.done = true
		return false
	}
	c.left--
	if c.blockN == spillBlockEntries {
		c.blockN = 0
	}
	if c.blockN == 0 {
		c.prevH = 0
		c.cur = c.cur[:0]
	}
	read := func() uint64 {
		x, err := binary.ReadUvarint(c.br)
		if err != nil {
			panic(fmt.Sprintf("mcheck: spill backend: reading run for compaction: %v", err))
		}
		return x
	}
	dh := read()
	budget := read()
	shared := read()
	slen := read()
	if int(shared) > len(c.cur) {
		panic("mcheck: spill backend: corrupt run during compaction")
	}
	c.cur = c.cur[:shared]
	for i := uint64(0); i < slen; i++ {
		b, err := c.br.ReadByte()
		if err != nil {
			panic(fmt.Sprintf("mcheck: spill backend: reading run for compaction: %v", err))
		}
		c.cur = append(c.cur, b)
	}
	c.h = c.prevH + dh
	c.prevH = c.h
	c.budget = int32(budget)
	c.blockN++
	return true
}
