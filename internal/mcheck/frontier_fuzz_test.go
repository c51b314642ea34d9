package mcheck

import (
	"bytes"
	"testing"

	"repro/internal/papernets"
	"repro/internal/sim"
)

// batchEntry is one frontier entry as the fuzz target builds it.
type batchEntry struct {
	enc    []byte
	budget int
	node   int32
}

// parseBatchEntries turns fuzz bytes into frontier entries. Each entry is
// a byte saying how much of the previous encoding to keep, a suffix length
// byte (mod 64) and that many bytes, a budget byte and a two-byte node
// index; a truncated entry ends the list. Keeping a prefix lets the fuzzer
// reach the long shared prefixes real sibling states have.
func parseBatchEntries(data []byte) []batchEntry {
	var out []batchEntry
	var prev []byte
	for len(data) >= 2 {
		keep := int(data[0]) % (len(prev) + 1)
		n := int(data[1]) % 64
		if len(data) < 2+n+3 {
			break
		}
		enc := append(append([]byte(nil), prev[:keep]...), data[2:2+n]...)
		rest := data[2+n:]
		out = append(out, batchEntry{enc: enc, budget: int(rest[0]), node: int32(rest[1])<<8 | int32(rest[2])})
		prev = enc
		data = rest[3:]
	}
	return out
}

// formatBatchEntries is parseBatchEntries' inverse for seed inputs whose
// encodings are shorter than 64 bytes; it keeps no prefix, so the codec's
// own prefix sharing does all the compression.
func formatBatchEntries(entries []batchEntry) []byte {
	var data []byte
	for _, e := range entries {
		data = append(data, 0, byte(len(e.enc)))
		data = append(data, e.enc...)
		data = append(data, byte(e.budget), byte(e.node>>8), byte(e.node))
	}
	return data
}

// gen3Encodings returns the encodings of the first n states a
// breadth-first walk of Gen(3) at stall budget 1 reaches, duplicates
// included: real frontier entries, with the prefixes siblings share.
func gen3Encodings(n int) [][]byte {
	root := newHeldSim(papernets.GenK(3).Scenario)
	enum := newDecisionEnum(root)
	cfg := enumConfig{inTransitOnly: true}
	var out [][]byte
	queue := []*sim.Sim{root}
	for len(queue) > 0 && len(out) < n {
		s := queue[0]
		queue = queue[1:]
		var enc []byte
		s.EncodeTo(&enc)
		out = append(out, enc)
		enum.forEach(s, 1, cfg, nil, func(d *Decision) bool {
			next := s.Clone()
			apply(next, *d)
			next.StepWithPicks(d.Picks)
			queue = append(queue, next)
			return len(queue) < n
		})
	}
	return out
}

// FuzzFrontierBatch: every level of a search goes through the frontier
// batch codec, so any entry sequence batchBuilder.add accepts must come
// back exactly — the same encodings, budgets and node indices in the same
// order — both from one sequential pass (seekAll, the merge's view) and
// from every restart block decoded on its own (seekBlock, the workers'
// view). The seeds are Gen(3) encodings, one batch within a restart block
// and one that crosses two block boundaries.
func FuzzFrontierBatch(f *testing.F) {
	encs := gen3Encodings(80)
	for _, n := range []int{3, len(encs)} {
		entries := make([]batchEntry, n)
		for i := range entries {
			entries[i] = batchEntry{enc: encs[i], budget: i % 2, node: int32(i)}
		}
		data := formatBatchEntries(entries)
		if got := len(parseBatchEntries(data)); got != n {
			f.Fatalf("seed of %d entries parses as %d; an encoding reached 64 bytes", n, got)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := parseBatchEntries(data)
		var bb batchBuilder
		for _, e := range entries {
			bb.add(e.enc, e.budget, e.node)
		}
		b := &bb.batch
		if b.count != len(entries) {
			t.Fatalf("batch counts %d entries, added %d", b.count, len(entries))
		}
		if want := (len(entries) + batchRestart - 1) / batchRestart; b.blocks() != want {
			t.Fatalf("batch has %d blocks, want %d", b.blocks(), want)
		}
		check := func(view string, it *batchIter, from, to int) {
			t.Helper()
			for i := from; i < to; i++ {
				if !it.next() {
					t.Fatalf("%s: ended before entry %d of %d", view, i, to)
				}
				e := entries[i]
				if it.idx-1 != i || !bytes.Equal(it.cur, e.enc) || it.budget != e.budget || it.node != e.node {
					t.Fatalf("%s: entry %d decoded as #%d %x budget %d node %d, want %x budget %d node %d",
						view, i, it.idx-1, it.cur, it.budget, it.node, e.enc, e.budget, e.node)
				}
			}
			if it.next() {
				t.Fatalf("%s: yields an entry past %d", view, to)
			}
		}
		var it batchIter
		it.seekAll(b)
		check("seekAll", &it, 0, len(entries))
		for bi := 0; bi < b.blocks(); bi++ {
			it.seekBlock(b, bi)
			check("seekBlock", &it, bi*batchRestart, min((bi+1)*batchRestart, len(entries)))
		}
	})
}
