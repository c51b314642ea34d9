package mcheck

import (
	"encoding/binary"
	"fmt"
	"math"
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
// worker count. (Only spill runs sort; a frontier must not.)
//
// Each entry is written by appendEntry (below) with the values (budget,
// provenance node). Restart points double as the parallel work-division
// grain: workers claim whole blocks and decode them sequentially, so no
// entry is ever decoded twice and no offsets but the restarts need
// indexing.

// The entry codec, shared by frontier batches and the visited set's spill
// runs. An entry is a state encoding prefix-compressed against the
// previous entry of its block, followed by two values, uvarints
// throughout:
//
//	shared    prefix length shared with the previous key (0 at a block
//	          start, so blocks decode independently)
//	suffixLen, then suffixLen key bytes
//	a         first value: a frontier entry's budget, a run entry's budget
//	b         second value: a frontier entry's node, a run entry's digest
//	          delta from the previous entry (the full digest at a block
//	          start)
//
// Keys must stay in lockstep with sim.EncodeTo and sim.DecodeFrom: the
// codec stores their bytes verbatim.

// appendEntry appends the entry (key, a, b) to dst, sharing key's prefix
// with prev, the previous key of the block (nil at a block start).
func appendEntry(dst, prev, key []byte, a, b uint64) []byte {
	shared := 0
	for shared < len(prev) && shared < len(key) && prev[shared] == key[shared] {
		shared++
	}
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(key)-shared))
	dst = append(dst, key[shared:]...)
	dst = binary.AppendUvarint(dst, a)
	return binary.AppendUvarint(dst, b)
}

// decodeEntry decodes the entry at data[pos:]. *key holds the previous
// key of the block on entry and the decoded key on return; end is the
// offset just past the entry. shared, suffixLen and a must not exceed
// MaxInt32, as in sim.DecodeFrom: no length or budget comes near it, and
// a larger value would turn negative as an int. b is returned as stored,
// since a run's digest delta spans all 64 bits. A malformed entry is an
// error, never a panic, and leaves *key undefined.
func decodeEntry(data []byte, pos int, key *[]byte) (a, b uint64, end int, err error) {
	shared, n := binary.Uvarint(data[pos:])
	if n <= 0 || shared > math.MaxInt32 {
		return 0, 0, pos, badVarint(shared, n, pos)
	}
	if shared > uint64(len(*key)) {
		return 0, 0, pos, fmt.Errorf("shared prefix %d at offset %d longer than the previous key (%d bytes)", shared, pos, len(*key))
	}
	pos += n
	suffix, n := binary.Uvarint(data[pos:])
	if n <= 0 || suffix > math.MaxInt32 {
		return 0, 0, pos, badVarint(suffix, n, pos)
	}
	pos += n
	if suffix > uint64(len(data)-pos) {
		return 0, 0, pos, fmt.Errorf("suffix of %d bytes at offset %d runs past the end (%d bytes)", suffix, pos, len(data))
	}
	*key = append((*key)[:shared], data[pos:pos+int(suffix)]...)
	pos += int(suffix)
	a, n = binary.Uvarint(data[pos:])
	if n <= 0 || a > math.MaxInt32 {
		return 0, 0, pos, badVarint(a, n, pos)
	}
	pos += n
	b, n = binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, pos, badVarint(b, n, pos)
	}
	return a, b, pos + n, nil
}

// badVarint describes a uvarint x of n bytes at offset pos that
// decodeEntry rejects: truncated or overlong when n <= 0, else above
// MaxInt32.
func badVarint(x uint64, n, pos int) error {
	if n <= 0 {
		return fmt.Errorf("truncated or overlong varint at offset %d", pos)
	}
	return fmt.Errorf("value %d at offset %d out of range", x, pos)
}

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
	b.data = appendEntry(b.data, bb.prev, enc, uint64(budget), uint64(node))
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
	budget, node, end, err := decodeEntry(it.batch.data, it.pos, &it.cur)
	if err != nil {
		panic(fmt.Sprintf("mcheck: corrupt frontier batch entry %d at offset %d: %v", it.idx, it.pos, err))
	}
	it.pos, it.budget, it.node = end, int(budget), int32(node)
	it.idx++
	return true
}
