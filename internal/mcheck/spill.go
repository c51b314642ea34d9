package mcheck

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sort"
)

// Spilling bounds the visited set's resident memory. When a shard of a
// VisitedSpill store crosses its byte budget, its resident entries are
// sorted by (digest, encoding) and written out as one immutable run file
// with an in-memory fence index, and the resident chain starts over
// empty. Probes that miss the resident chain read the shard's runs
// newest-first via positioned reads (pread), so every probe answers
// exactly as an unbounded resident chain would: runs are snapshots, and
// the freshest record of an encoding — a later budget upgrade lands in
// memory or in a newer run — always shadows older ones. When a shard
// accumulates too many runs they are merged into one, keeping the newest
// record of each encoding, which bounds both probe fan-out and disk
// growth.
//
// The result is a search whose resident set is O(MemBudget + fence
// indexes) regardless of state count; only the run files grow, at the
// (compressed) size of the distinct encodings. Run files are private to
// one search and removed on close; disk I/O failures and corrupt runs are
// unrecoverable mid-search and panic with context.
//
// A run is a sequence of blocks of up to spillBlockEntries entries in the
// entry codec of frontier.go, each entry holding (budget, digest delta)
// as its two values. Entries are sorted by (digest, encoding), so digest
// deltas are non-negative and neighbouring state encodings — which differ
// in a few trailing counters far more often than anywhere else under a
// sorted digest tie — compress against each other. The fence index holds
// one (first digest, offset) pair per block.

// spillRun is one immutable sorted run file plus its fence index: the
// digest and byte offset of every block, enough to land a lookup on the
// one or two blocks that can contain a digest.
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
	// share a prefix with their predecessor.
	spillBlockEntries = 64
	// spillMaxRuns triggers a shard compaction: probes touch at most this
	// many runs plus the resident chain.
	spillMaxRuns = 6
	// spillMinSpillEntries keeps a pathological byte budget from emitting
	// near-empty runs.
	spillMinSpillEntries = 16
	spillFenceOverhead   = 16 // bytes per runFence
)

// spillKey is one resident entry's place in the spill order.
type spillKey struct {
	h uint64
	e *visitedEntry
}

// spill writes the shard's resident entries as one new run, sorted by
// (digest, encoding) with digests recomputed from the store's seed, then
// resets the resident chain. Only the merge goroutine calls it.
func (v *visitedSet) spill(sh *visitedShard) {
	v.order = v.order[:0]
	for i := range sh.entries {
		e := &sh.entries[i]
		v.order = append(v.order, spillKey{h: v.hash(e.enc), e: e})
	}
	slices.SortFunc(v.order, func(a, b spillKey) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return bytes.Compare(a.e.enc, b.e.enc)
	})
	w := v.newRunWriter()
	for _, k := range v.order {
		w.add(k.h, k.e.enc, k.e.budget)
	}
	clear(v.order)
	v.addRun(sh, w.finish())
	clear(sh.index)
	// The run now holds every encoding: drop the entries' references and
	// refill the arena's newest chunk from the start, so the resident
	// portion settles at one chunk instead of allocating per spill.
	clear(sh.entries)
	sh.entries = sh.entries[:0]
	sh.keys.reset()
	sh.bytes = 0
}

// compact merges every run of the shard into one, keeping the newest
// record of each (digest, encoding) and dropping superseded duplicates.
// Each run is read block by block through its fence offsets, as lookups
// read it. Only the merge goroutine calls it.
func (v *visitedSet) compact(sh *visitedShard) {
	rds := make([]*runReader, len(sh.runs))
	for i, r := range sh.runs {
		rds[i] = v.getReader()
		rds[i].load(r, 0)
		rds[i].entry() // every run has >= 1 entry
	}
	w := v.newRunWriter()
	var key []byte
	for {
		// Pick the smallest live (h, key); among equal keys the newest run
		// (highest index) wins and the stale copies are skipped.
		best := -1
		for i, rd := range rds {
			if rd.run == nil {
				continue
			}
			if best < 0 || rd.h < rds[best].h || (rd.h == rds[best].h && bytes.Compare(rd.key, rds[best].key) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		// Snapshot the key before advancing anything: a reader's key is
		// scratch that the next entry overwrites.
		h := rds[best].h
		key = append(key[:0], rds[best].key...)
		budget := rds[best].budget
		for i := best + 1; i < len(rds); i++ {
			if rd := rds[i]; rd.run != nil && rd.h == h && bytes.Equal(rd.key, key) {
				budget = rd.budget
			}
		}
		w.add(h, key, budget)
		for _, rd := range rds[best:] {
			if rd.run != nil && rd.h == h && bytes.Equal(rd.key, key) {
				rd.advance()
			}
		}
	}
	for _, rd := range rds {
		v.readers.Put(rd)
	}
	for _, r := range sh.runs {
		r.f.Close()
		os.Remove(r.f.Name())
	}
	sh.runs, sh.runBytes, sh.runEntries, sh.fenceBytes = sh.runs[:0], 0, 0, 0
	v.addRun(sh, w.finish())
	v.compactions++
}

// addRun appends a finished run to the shard and its accounting.
func (v *visitedSet) addRun(sh *visitedShard, run *spillRun) {
	sh.runs = append(sh.runs, run)
	sh.runBytes += run.size
	sh.runEntries += int64(run.count)
	sh.fenceBytes += int64(len(run.fence)) * spillFenceOverhead
}

func (v *visitedSet) getReader() *runReader {
	if x := v.readers.Get(); x != nil {
		return x.(*runReader)
	}
	return &runReader{}
}

// runWriter streams sorted entries into a new run file.
type runWriter struct {
	f     *os.File
	bw    *bufio.Writer
	fence []runFence
	count int
	off   int64
	prevH uint64
	prev  []byte
	entry []byte
}

func (v *visitedSet) newRunWriter() *runWriter {
	f, err := os.CreateTemp(v.dir, "run-*.spill")
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: creating run file: %v", err))
	}
	return &runWriter{f: f, bw: bufio.NewWriter(f)}
}

func (w *runWriter) add(h uint64, enc []byte, budget int32) {
	if w.count%spillBlockEntries == 0 {
		w.fence = append(w.fence, runFence{h: h, off: w.off})
		w.prevH = 0
		w.prev = w.prev[:0]
	}
	w.entry = appendEntry(w.entry[:0], w.prev, enc, uint64(budget), h-w.prevH)
	if _, err := w.bw.Write(w.entry); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: writing run: %v", err))
	}
	w.off += int64(len(w.entry))
	w.prevH = h
	w.prev = append(w.prev[:0], enc...)
	w.count++
}

func (w *runWriter) finish() *spillRun {
	if err := w.bw.Flush(); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: flushing run: %v", err))
	}
	return &spillRun{f: w.f, size: w.off, fence: w.fence, count: w.count}
}

// runReader reads a run's entries one block at a time with positioned
// reads, so concurrent lookups share the immutable file safely. After
// entry, h, key and budget hold the decoded entry; key is scratch that
// the next entry overwrites. Lookups draw readers from a pool; a
// compaction holds one per run it merges.
type runReader struct {
	run    *spillRun // nil once advance passes the run's last entry
	bi     int       // block held in block
	block  []byte
	pos    int
	h      uint64
	budget int32
	key    []byte
}

// load reads block bi of r and positions the reader at its first entry.
func (rd *runReader) load(r *spillRun, bi int) {
	start, end := r.fence[bi].off, r.size
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
	rd.run, rd.bi, rd.pos, rd.h = r, bi, 0, 0
	rd.key = rd.key[:0]
}

// more reports whether the loaded block has entries left.
func (rd *runReader) more() bool { return rd.pos < len(rd.block) }

// entry decodes the next entry of the loaded block. A corrupt block
// panics, naming the run file and the entry's offset in it.
func (rd *runReader) entry() {
	budget, dh, end, err := decodeEntry(rd.block, rd.pos, &rd.key)
	if err != nil {
		rd.corrupt(err)
	}
	rd.pos, rd.h, rd.budget = end, rd.h+dh, int32(budget)
}

func (rd *runReader) corrupt(err error) {
	panic(fmt.Sprintf("mcheck: spill backend: corrupt run block in %s at offset %d: %v",
		rd.run.f.Name(), rd.run.fence[rd.bi].off+int64(rd.pos), err))
}

// advance decodes the run's next entry, loading the next block when the
// current one is exhausted, and drops the run when none is left.
func (rd *runReader) advance() {
	if !rd.more() {
		if rd.bi+1 == len(rd.run.fence) {
			rd.run = nil
			return
		}
		rd.load(rd.run, rd.bi+1)
	}
	rd.entry()
}

// lookup finds (h, enc) in the run. The fence index narrows the scan to
// the blocks whose digest range can hold h.
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
	for ; bi < len(r.fence) && r.fence[bi].h <= h; bi++ {
		rd.load(r, bi)
		for rd.more() {
			rd.entry()
			if rd.h > h {
				return 0, false
			}
			if rd.h == h && bytes.Equal(rd.key, enc) {
				return rd.budget, true
			}
		}
	}
	return 0, false
}
