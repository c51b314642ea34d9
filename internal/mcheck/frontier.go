package mcheck

import (
	"encoding/binary"
	"fmt"
)

// Compressed frontier batching: Search carries each BFS level not as live
// simulators (each a full heap object) but as one contiguous byte buffer
// of delta-encoded state encodings, decoded back into a worker-local
// simulator at expansion time. Neighbouring frontier entries are siblings
// or cousins in the state graph and share long encoding prefixes, so
// varint prefix compression against the previous entry shrinks a level
// far below the sum of its encodings — and the frontier stops being the
// memory ceiling that defeats an out-of-core visited set.
//
// An entry is the state's own encoding (EncodeTo), never its canonical
// symmetry representative, so it decodes to exactly the state the search
// reached; the visited set keys on the canonical form separately.
//
// Entries are stored in INSERTION order, never sorted: the merge iterates
// a batch in the order a sequential FIFO queue would dequeue the level,
// so acceptance order, provenance and witnesses do not depend on the
// worker count. (Only spill run files sort; a frontier must not.)
//
// Entry format, uvarints throughout:
//
//	shared    prefix length shared with the previous entry (forced 0 at
//	          every batchRestart-th entry, so blocks decode independently)
//	suffixLen, then suffixLen encoding bytes
//	budget    remaining stall budget of the entry
//	node      provenance arena index of the entry
//
// Restart points double as the parallel work-division grain: workers
// claim whole blocks and decode them sequentially, so no entry is ever
// decoded twice and no offsets but the restarts need indexing.

// batchRestart is the prefix-compression restart interval and the
// parallel claim grain.
const batchRestart = 32

// frontierBatch is one immutable encoded BFS level.
type frontierBatch struct {
	data     []byte
	restarts []int32 // byte offset of entries 0, batchRestart, 2·batchRestart, ...
	count    int
}

// blocks returns the number of restart blocks.
func (b *frontierBatch) blocks() int { return len(b.restarts) }

// batchBuilder accumulates a level in insertion order.
type batchBuilder struct {
	batch frontierBatch
	prev  []byte
}

func (bb *batchBuilder) reset() {
	bb.batch = frontierBatch{data: bb.batch.data[:0], restarts: bb.batch.restarts[:0]}
	bb.prev = bb.prev[:0]
}

func (bb *batchBuilder) add(enc []byte, budget int, node int32) {
	b := &bb.batch
	if b.count%batchRestart == 0 {
		b.restarts = append(b.restarts, int32(len(b.data)))
		bb.prev = bb.prev[:0]
	}
	shared := 0
	for shared < len(bb.prev) && shared < len(enc) && bb.prev[shared] == enc[shared] {
		shared++
	}
	b.data = binary.AppendUvarint(b.data, uint64(shared))
	b.data = binary.AppendUvarint(b.data, uint64(len(enc)-shared))
	b.data = append(b.data, enc[shared:]...)
	b.data = binary.AppendUvarint(b.data, uint64(budget))
	b.data = binary.AppendUvarint(b.data, uint64(node))
	b.count++
	bb.prev = append(bb.prev[:0], enc...)
}

// batchIter decodes a batch sequentially, or one claimed block at a time.
// cur aliases the iterator's scratch and is valid until the next call.
type batchIter struct {
	batch  *frontierBatch
	pos    int
	idx    int // entry index of the NEXT entry
	end    int // one past the last entry this iterator may decode
	cur    []byte
	budget int
	node   int32
}

// seekAll positions the iterator at the start of the whole batch.
func (it *batchIter) seekAll(b *frontierBatch) {
	it.batch, it.pos, it.idx, it.end = b, 0, 0, b.count
	it.cur = it.cur[:0]
}

// seekBlock positions the iterator at restart block bi, bounding it to
// that block.
func (it *batchIter) seekBlock(b *frontierBatch, bi int) {
	it.batch = b
	it.pos = int(b.restarts[bi])
	it.idx = bi * batchRestart
	it.end = it.idx + batchRestart
	if it.end > b.count {
		it.end = b.count
	}
	it.cur = it.cur[:0]
}

// next decodes the next entry into cur/budget/node, reporting whether one
// was available. Corruption panics: batches never leave this process.
func (it *batchIter) next() bool {
	if it.idx >= it.end {
		return false
	}
	data := it.batch.data
	read := func() int {
		v, n := binary.Uvarint(data[it.pos:])
		if n <= 0 {
			panic(fmt.Sprintf("mcheck: corrupt frontier batch at offset %d", it.pos))
		}
		it.pos += n
		return int(v)
	}
	shared := read()
	suffix := read()
	if shared > len(it.cur) || it.pos+suffix > len(data) {
		panic(fmt.Sprintf("mcheck: corrupt frontier batch entry %d", it.idx))
	}
	it.cur = append(it.cur[:shared], data[it.pos:it.pos+suffix]...)
	it.pos += suffix
	it.budget = read()
	it.node = int32(read())
	it.idx++
	return true
}
