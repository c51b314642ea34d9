package mcheck

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
)

// Spilling bounds the visited set's resident memory. When a shard of a
// VisitedSpill store crosses its byte budget, its resident entries are
// sorted by (digest, encoding) and appended to the store's segment file
// as one immutable run, with an in-memory fence index and fingerprints,
// and the resident table starts over empty. Probes that miss the
// resident table consult the shard's runs newest-first, so every probe
// answers exactly as an unbounded resident table would: runs are
// snapshots, and the freshest record of an encoding — a later budget
// upgrade lands in memory or in a newer run — always shadows older ones.
// When a shard accumulates too many runs they are merged into one,
// keeping the newest record of each encoding, which bounds probe
// fan-out.
//
// The result is a search whose resident set is O(MemBudget + fence
// indexes + fingerprints) regardless of state count; only the segment
// grows, at the (compressed) size of the distinct encodings. The segment
// is private to one search and removed on close; disk I/O failures and
// corrupt runs are unrecoverable mid-search and panic with context.
//
// One segment per store. Every shard's runs, and every compaction's
// merged run, are appended to a single segment file, so a spill costs a
// buffered write and no file creation. A run is a region of it: a base
// offset and a size, with every fence offset relative to the base. A
// compaction leaves the runs it merged behind as dead bytes; once those
// exceed the live run bytes, the live runs are copied into a fresh
// segment and the old file is deleted. A store therefore holds at most
// two files, briefly, and at most about twice its live run bytes.
//
// A run is a sequence of blocks of up to spillBlockEntries entries in the
// entry codec of frontier.go, each entry holding (budget, digest delta)
// as its two values. Entries are sorted by (digest, encoding), so digest
// deltas are non-negative and neighbouring state encodings — which differ
// in a few trailing counters far more often than anywhere else under a
// sorted digest tie — compress against each other. The fence index holds
// one (first digest, offset) pair per block.
//
// Fingerprints. A run also keeps one 16-bit fingerprint of each entry's
// digest, in run order. A probe scans the fingerprints of the block the
// fence index lands on before reading anything: most probes of a run are
// misses, and a block with no matching fingerprint cannot hold the
// digest, so the miss is answered with no read and no decoding. A match
// still reads the block and compares the full encoding.

// spillRun is one immutable sorted run: its place in the segment, plus
// the fence index (the digest and offset of every block, enough to land
// a lookup on the one or two blocks that can contain a digest) and the
// entries' fingerprints.
type spillRun struct {
	seg   *segment
	base  int64 // offset of the run's first byte in seg
	size  int64
	fence []runFence
	fp    []uint16 // runFingerprint of each entry's digest, in run order
	count int
}

type runFence struct {
	h   uint64
	off int64 // relative to the run's base
}

// segment is the append-only file that holds a store's runs.
type segment struct {
	f    *os.File
	size int64 // bytes written; the next run starts here
}

// Write appends p. The runs' buffered writer writes through it.
func (s *segment) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.size += int64(n)
	return n, err
}

const (
	// spillBlockEntries is the restart interval: each block's first entry
	// is written in full, subsequent entries delta-encode their digest and
	// share a prefix with their predecessor.
	spillBlockEntries = 64
	// spillMaxRuns triggers a shard compaction: probes touch at most this
	// many runs plus the resident table.
	spillMaxRuns = 6
	// spillMinSpillEntries keeps a pathological byte budget from emitting
	// near-empty runs.
	spillMinSpillEntries = 16
	spillFenceOverhead   = 16 // bytes per runFence
	spillFPOverhead      = 2  // bytes per fingerprint
	// spillWriteBuffer is the run writer's buffer size: a typical spill
	// is one write.
	spillWriteBuffer = 32 << 10
)

// runFingerprint is the fingerprint a run keeps of digest h. Its bits are
// ones that neither the shard index (the low six) nor the run's sort
// order fixes: within a large sorted run the high bits of neighbouring
// digests are nearly constant.
func runFingerprint(h uint64) uint16 { return uint16(h >> 6) }

// spillKey is one resident entry's place in the spill order.
type spillKey struct {
	h uint64
	i int32 // index in the shard's entries
}

// spill appends the shard's resident entries to the segment as one new
// run, sorted by (digest, encoding), then resets the resident table.
// Only the merge goroutine calls it.
func (v *visitedSet) spill(sh *visitedShard) {
	v.order = v.order[:0]
	for i := range sh.entries {
		v.order = append(v.order, spillKey{h: sh.entries[i].h, i: int32(i)})
	}
	slices.SortFunc(v.order, func(a, b spillKey) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return bytes.Compare(sh.keys.at(sh.entries[a.i].key), sh.keys.at(sh.entries[b.i].key))
	})
	w := v.newRunWriter(len(v.order))
	for _, k := range v.order {
		e := &sh.entries[k.i]
		w.add(e.h, sh.keys.at(e.key), e.budget)
	}
	v.addRun(sh, w.finish())
	// The run now holds every encoding: empty the table and refill the
	// arena's newest chunk from the start, so the resident portion
	// settles at one chunk instead of allocating per spill.
	clear(sh.slots)
	sh.entries = sh.entries[:0]
	sh.keys.reset()
	sh.bytes = 0
}

// compact merges every run of the shard into one, keeping the newest
// record of each (digest, encoding) and dropping superseded duplicates,
// then replaces the segment if dead bytes outweigh live ones. Each run
// is read block by block through its fence offsets, as lookups read it.
// Only the merge goroutine calls it.
func (v *visitedSet) compact(sh *visitedShard) {
	rds := make([]*runReader, len(sh.runs))
	entries := 0
	for i, r := range sh.runs {
		rds[i] = v.getReader()
		rds[i].load(r, 0)
		rds[i].entry() // every run has >= 1 entry
		entries += r.count
	}
	w := v.newRunWriter(entries)
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
	merged := w.finish()
	v.dropRuns(sh)
	v.addRun(sh, merged)
	v.compactions++
	v.rewriteSegment()
}

// addRun appends a finished run to the shard and its accounting.
func (v *visitedSet) addRun(sh *visitedShard, run *spillRun) {
	sh.runs = append(sh.runs, run)
	sh.runBytes += run.size
	sh.runEntries += int64(run.count)
	sh.fenceBytes += int64(len(run.fence))*spillFenceOverhead + int64(run.count)*spillFPOverhead
}

// dropRuns forgets the shard's runs; their bytes in the segment are dead
// from then on.
func (v *visitedSet) dropRuns(sh *visitedShard) {
	clear(sh.runs)
	sh.runs, sh.runBytes, sh.runEntries, sh.fenceBytes = sh.runs[:0], 0, 0, 0
}

// liveBytes returns the segment bytes that live runs occupy.
func (v *visitedSet) liveBytes() int64 {
	var n int64
	for i := range v.shards {
		n += v.shards[i].runBytes
	}
	return n
}

// rewriteSegment copies the live runs into a fresh segment, re-points
// them and deletes the old file, once the old segment's dead bytes
// exceed its live ones. Only the merge goroutine calls it.
func (v *visitedSet) rewriteSegment() {
	live := v.liveBytes()
	if v.seg.size-live <= live {
		return
	}
	old := v.seg
	v.seg = v.newSegment()
	v.w.bw.Reset(v.seg)
	for i := range v.shards {
		for _, r := range v.shards[i].runs {
			base := v.seg.size + int64(v.w.bw.Buffered())
			if _, err := v.w.bw.ReadFrom(io.NewSectionReader(old.f, r.base, r.size)); err != nil {
				panic(fmt.Sprintf("mcheck: spill backend: copying run from %s: %v", old.f.Name(), err))
			}
			r.seg, r.base = v.seg, base
		}
	}
	if err := v.w.bw.Flush(); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: writing segment: %v", err))
	}
	old.f.Close()
	os.Remove(old.f.Name())
}

func (v *visitedSet) newSegment() *segment {
	f, err := os.CreateTemp(v.dir, "segment-*.spill")
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: creating segment file: %v", err))
	}
	return &segment{f: f}
}

func (v *visitedSet) getReader() *runReader {
	if x := v.readers.Get(); x != nil {
		return x.(*runReader)
	}
	return &runReader{}
}

// runWriter streams sorted entries into a new run at the end of the
// segment. The store keeps one and reuses its buffers; fence and fp are
// the run's own.
type runWriter struct {
	bw    *bufio.Writer
	run   *spillRun
	off   int64
	prevH uint64
	prev  []byte
	entry []byte
}

// newRunWriter starts a run of at most entries entries, creating the
// segment at the first one.
func (v *visitedSet) newRunWriter(entries int) *runWriter {
	if v.seg == nil {
		v.seg = v.newSegment()
	}
	w := &v.w
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(v.seg, spillWriteBuffer)
	}
	// Reset drops whatever a run that panicked mid-write left buffered;
	// the bytes it flushed are dead.
	w.bw.Reset(v.seg)
	w.run = &spillRun{seg: v.seg, base: v.seg.size, fp: make([]uint16, 0, entries)}
	w.off = 0
	return w
}

func (w *runWriter) add(h uint64, enc []byte, budget int32) {
	r := w.run
	if r.count%spillBlockEntries == 0 {
		r.fence = append(r.fence, runFence{h: h, off: w.off})
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
	r.fp = append(r.fp, runFingerprint(h))
	r.count++
}

func (w *runWriter) finish() *spillRun {
	if err := w.bw.Flush(); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: flushing run: %v", err))
	}
	r := w.run
	r.size, w.run = w.off, nil
	return r
}

// runReader reads a run's entries one block at a time with positioned
// reads, so concurrent lookups share the immutable segment safely. After
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
	if _, err := r.seg.f.ReadAt(rd.block, r.base+start); err != nil {
		panic(fmt.Sprintf("mcheck: spill backend: reading run block: %v", err))
	}
	rd.run, rd.bi, rd.pos, rd.h = r, bi, 0, 0
	rd.key = rd.key[:0]
}

// more reports whether the loaded block has entries left.
func (rd *runReader) more() bool { return rd.pos < len(rd.block) }

// entry decodes the next entry of the loaded block. A corrupt block
// panics, naming the segment file and the entry's offset in it.
func (rd *runReader) entry() {
	budget, dh, end, err := decodeEntry(rd.block, rd.pos, &rd.key)
	if err != nil {
		rd.corrupt(err)
	}
	rd.pos, rd.h, rd.budget = end, rd.h+dh, int32(budget)
}

func (rd *runReader) corrupt(err error) {
	r := rd.run
	panic(fmt.Sprintf("mcheck: spill backend: corrupt run block in %s at offset %d: %v",
		r.seg.f.Name(), r.base+r.fence[rd.bi].off+int64(rd.pos), err))
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

// lookupRuns probes the shard's runs newest-first, so the freshest
// record of an encoding wins. A run whose fingerprints rule the digest
// out costs no read and no pool reader. The run list changes only in the
// merge phase, so it is fixed for the whole expansion phase.
func (v *visitedSet) lookupRuns(sh *visitedShard, h uint64, enc []byte) (budget int32, ok bool) {
	var rd *runReader
	for i := len(sh.runs) - 1; i >= 0 && !ok; i-- {
		r := sh.runs[i]
		if lo, hi := r.blocks(h); !r.mayHold(lo, hi, h) {
			continue
		}
		if rd == nil {
			rd = v.getReader()
		}
		budget, ok = r.lookup(h, enc, rd)
	}
	if rd != nil {
		v.readers.Put(rd)
	}
	return budget, ok
}

// blocks returns the range [lo, hi) of the blocks whose digest range can
// hold h.
func (r *spillRun) blocks(h uint64) (lo, hi int) {
	// hi is the first block that starts above h.
	for j := len(r.fence); hi < j; {
		m := int(uint(hi+j) >> 1)
		if r.fence[m].h <= h {
			hi = m + 1
		} else {
			j = m
		}
	}
	if hi == 0 {
		return 0, 0
	}
	// Equal digests can span a block boundary; back up over blocks that
	// START at h, since the sequence may begin in an earlier one.
	lo = hi - 1
	for lo > 0 && r.fence[lo].h == h {
		lo--
	}
	return lo, hi
}

// blockHolds reports whether block bi has an entry fingerprinted fp.
func (r *spillRun) blockHolds(bi int, fp uint16) bool {
	lo := bi * spillBlockEntries
	return slices.Contains(r.fp[lo:min(lo+spillBlockEntries, r.count)], fp)
}

// mayHold reports whether a block of [lo, hi) may hold digest h: false
// is a definite miss.
func (r *spillRun) mayHold(lo, hi int, h uint64) bool {
	fp := runFingerprint(h)
	for bi := lo; bi < hi; bi++ {
		if r.blockHolds(bi, fp) {
			return true
		}
	}
	return false
}

// lookup finds (h, enc) in the run. The fence index narrows the scan to
// the blocks whose digest range can hold h, and the fingerprints to
// those of them that hold an entry fingerprinted like h.
func (r *spillRun) lookup(h uint64, enc []byte, rd *runReader) (int32, bool) {
	fp := runFingerprint(h)
	lo, hi := r.blocks(h)
	for bi := lo; bi < hi; bi++ {
		if !r.blockHolds(bi, fp) {
			continue
		}
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
