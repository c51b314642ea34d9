package mcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// allBackendStores builds one store per backend, the spill one with a
// hostile one-byte budget. Callers must close them.
func allBackendStores(t *testing.T) map[string]visitedStore {
	t.Helper()
	return map[string]visitedStore{
		"mem":   newVisitedSet(),
		"spill": newSpillVisited(normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()})),
	}
}

// TestVisitedDigestCollisions: two different encodings inserted under the
// SAME 64-bit digest must chain, not conflate — every backend verifies
// the full encoding bytes behind the digest.
func TestVisitedDigestCollisions(t *testing.T) {
	for name, st := range allBackendStores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.close()
			const h = uint64(0xdeadbeefcafef00d)
			a := []byte("encoding-alpha")
			b := []byte("encoding-beta-longer")
			c := []byte("encoding-gamma")
			if !st.insert(h, a, 0) || !st.insert(h, b, 0) {
				t.Fatal("fresh colliding encodings rejected")
			}
			if st.novel(h, a, 0) || st.novel(h, b, 0) {
				t.Fatal("inserted encoding still novel")
			}
			if !st.novel(h, c, 0) {
				t.Fatal("distinct encoding conflated with a digest collision")
			}
			if st.insert(h, a, 0) {
				t.Fatal("re-inserting a chained encoding claimed novelty")
			}
			if st.size() != 2 {
				t.Fatalf("size = %d, want 2", st.size())
			}
		})
	}
}

// TestVisitedBudgetReexpansion: a state revisited with a strictly larger
// stall budget is novel again (it can reach successors the smaller budget
// could not), smaller or equal budgets never are — and a tightening never
// erases the recorded high-water budget.
func TestVisitedBudgetReexpansion(t *testing.T) {
	for name, st := range allBackendStores(t) {
		t.Run(name, func(t *testing.T) {
			defer st.close()
			enc := []byte("some-state-encoding")
			h := st.hash(enc)
			if !st.insert(h, enc, 2) {
				t.Fatal("fresh insert rejected")
			}
			if st.novel(h, enc, 1) || st.novel(h, enc, 2) {
				t.Fatal("smaller/equal budget reported novel")
			}
			if st.insert(h, enc, 1) {
				t.Fatal("budget-tightening insert claimed novelty")
			}
			if !st.novel(h, enc, 3) {
				t.Fatal("larger budget not novel")
			}
			if !st.insert(h, enc, 3) {
				t.Fatal("budget-raising insert rejected")
			}
			if st.novel(h, enc, 3) {
				t.Fatal("recorded budget did not rise to 3")
			}
			if st.size() != 1 {
				t.Fatalf("size = %d, want 1 (budget updates are not new entries)", st.size())
			}
		})
	}
}

// TestSpillVisitedMatchesReference drives the spill backend with a
// deterministic random workload against a plain map model: thousands of
// entries under a one-byte budget, so every shard spills repeatedly and
// compacts several times, with budget upgrades mixed in throughout.
func TestSpillVisitedMatchesReference(t *testing.T) {
	st := newSpillVisited(normalizeVisitedConfig(VisitedConfig{
		Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()}))
	defer st.close()

	rng := rand.New(rand.NewSource(7))
	model := make(map[string]int)
	var keys []string
	for i := 0; i < 20000; i++ {
		var enc []byte
		var budget int
		if len(keys) > 0 && rng.Intn(10) < 3 {
			enc = []byte(keys[rng.Intn(len(keys))])
			budget = rng.Intn(5)
		} else {
			enc = make([]byte, 8+rng.Intn(32))
			rng.Read(enc)
			budget = rng.Intn(5)
		}
		key := string(enc)
		old, seen := model[key]
		wantNew := !seen || old < budget
		h := st.hash(enc)
		if got := st.novel(h, enc, budget); got != wantNew {
			t.Fatalf("op %d: novel = %v, model says %v", i, got, wantNew)
		}
		if got := st.insert(h, enc, budget); got != wantNew {
			t.Fatalf("op %d: insert = %v, model says %v", i, got, wantNew)
		}
		if wantNew {
			if !seen {
				keys = append(keys, key)
			}
			model[key] = budget
		}
	}

	if st.size() != len(model) {
		t.Fatalf("size = %d, model has %d distinct encodings", st.size(), len(model))
	}
	// Every recorded encoding: not novel at its budget, novel just above.
	for _, key := range keys {
		enc := []byte(key)
		h := st.hash(enc)
		if st.novel(h, enc, model[key]) {
			t.Fatalf("recorded encoding novel at its own budget %d", model[key])
		}
		if !st.novel(h, enc, model[key]+1) {
			t.Fatalf("recorded encoding not novel above its budget")
		}
	}

	var vs VisitedStats
	st.stats(&vs)
	if vs.Backend != "spill" || vs.Entries != len(model) {
		t.Fatalf("stats = %+v, want spill/%d", vs, len(model))
	}
	if vs.SpillRuns <= 0 || vs.SpillBytes <= 0 || vs.SpilledEntries <= 0 {
		t.Fatalf("one-byte budget never spilled: %+v", vs)
	}
	if vs.Compactions <= 0 {
		t.Fatalf("20k entries over a one-byte budget never compacted: %+v", vs)
	}
	if vs.SpillRuns > visitedShards*(spillMaxRuns+1) {
		t.Fatalf("compaction is not bounding run count: %d runs", vs.SpillRuns)
	}
}

// TestSpillCloseRemovesFiles: close must leave nothing on disk.
func TestSpillCloseRemovesFiles(t *testing.T) {
	parent := t.TempDir()
	st := newSpillVisited(normalizeVisitedConfig(VisitedConfig{
		Backend: VisitedSpill, MemBudget: 1, SpillDir: parent}))
	for i := 0; i < 5000; i++ {
		enc := []byte(fmt.Sprintf("state-encoding-%06d", i))
		st.insert(st.hash(enc), enc, 0)
	}
	var vs VisitedStats
	st.stats(&vs)
	if vs.SpillRuns == 0 {
		t.Fatal("workload never spilled; close test is vacuous")
	}
	dir := st.dir
	st.close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill directory %s survives close (err=%v)", dir, err)
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d entries left under the spill parent", len(ents))
	}
}

// TestFrontierBatchRoundTrip: the delta-encoded batch must return every
// entry byte-identically, in insertion order, both via the sequential
// iterator and via independent per-block iterators, and a reset builder
// must not leak state between levels.
func TestFrontierBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type entry struct {
		enc    []byte
		budget int
		node   int32
	}
	var bb batchBuilder
	for round := 0; round < 3; round++ {
		bb.reset()
		n := 1 + rng.Intn(200)
		entries := make([]entry, n)
		prefix := []byte("common-prefix-most-entries-share-")
		for i := range entries {
			var enc []byte
			if rng.Intn(4) > 0 {
				enc = append(append([]byte(nil), prefix...), byte(i), byte(i>>8))
			} else {
				enc = make([]byte, 1+rng.Intn(50))
				rng.Read(enc)
			}
			entries[i] = entry{enc: enc, budget: rng.Intn(10), node: int32(rng.Intn(1 << 20))}
			bb.add(enc, entries[i].budget, entries[i].node)
		}
		b := &bb.batch
		if b.count != n {
			t.Fatalf("round %d: count = %d, want %d", round, b.count, n)
		}

		var it batchIter
		it.seekAll(b)
		for i := 0; it.next(); i++ {
			if it.idx-1 != i {
				t.Fatalf("round %d: iterator index %d, want %d", round, it.idx-1, i)
			}
			e := entries[i]
			if !bytes.Equal(it.cur, e.enc) || it.budget != e.budget || it.node != e.node {
				t.Fatalf("round %d entry %d: decoded (%x,%d,%d), want (%x,%d,%d)",
					round, i, it.cur, it.budget, it.node, e.enc, e.budget, e.node)
			}
		}
		if it.idx != n {
			t.Fatalf("round %d: sequential iteration stopped at %d of %d", round, it.idx, n)
		}

		seen := 0
		for bi := 0; bi < b.blocks(); bi++ {
			var blk batchIter
			blk.seekBlock(b, bi)
			for blk.next() {
				e := entries[blk.idx-1]
				if !bytes.Equal(blk.cur, e.enc) || blk.budget != e.budget || blk.node != e.node {
					t.Fatalf("round %d block %d entry %d: decode mismatch", round, bi, blk.idx-1)
				}
				seen++
			}
		}
		if seen != n {
			t.Fatalf("round %d: block iteration covered %d of %d entries", round, seen, n)
		}
	}
}
