package mcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// backendConfigs are the two visited-set configurations: spilling off,
// and spilling under a hostile one-byte budget.
func backendConfigs(t *testing.T) map[string]VisitedConfig {
	return map[string]VisitedConfig{
		"mem":   normalizeVisitedConfig(VisitedConfig{}),
		"spill": normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()}),
	}
}

// allBackendStores builds one store per configuration of backendConfigs.
// Callers must close them.
func allBackendStores(t *testing.T) map[string]*visitedSet {
	t.Helper()
	stores := make(map[string]*visitedSet)
	for name, cfg := range backendConfigs(t) {
		stores[name] = newVisitedSet(cfg)
	}
	return stores
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

// TestSpillVisitedMatchesReference drives the visited set with a
// deterministic random workload against a plain map model, with spilling
// off and under a one-byte budget: thousands of entries, so in the
// spilling store every shard spills repeatedly and compacts several
// times, with budget upgrades mixed in throughout. The map model is the
// check on the resident chain that both configurations share.
func TestSpillVisitedMatchesReference(t *testing.T) {
	for name, cfg := range backendConfigs(t) {
		t.Run(name, func(t *testing.T) {
			st := newVisitedSet(cfg)
			defer st.close()
			model, keys := driveReferenceWorkload(t, st, nil)

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
			if vs.Backend != name || vs.Entries != len(model) {
				t.Fatalf("stats = %+v, want %s/%d", vs, name, len(model))
			}
			if cfg.Backend != VisitedSpill {
				if vs.SpillRuns != 0 || vs.SpillBytes != 0 || vs.SpilledEntries != 0 || vs.Compactions != 0 {
					t.Fatalf("store without a byte budget spilled: %+v", vs)
				}
				return
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
		})
	}
}

// driveReferenceWorkload runs 20,000 deterministic random novel/insert
// operations on st, a third of them revisits with a random budget, and
// checks each answer against a map model, calling after (unless nil)
// after each insert. It returns the model and its keys in
// first-insertion order.
func driveReferenceWorkload(t testing.TB, st *visitedSet, after func()) (map[string]int, []string) {
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
		if after != nil {
			after()
		}
		if wantNew {
			if !seen {
				keys = append(keys, key)
			}
			model[key] = budget
		}
	}
	return model, keys
}

// TestSpillCloseRemovesFiles: close must leave nothing on disk.
func TestSpillCloseRemovesFiles(t *testing.T) {
	parent := t.TempDir()
	st := newVisitedSet(normalizeVisitedConfig(VisitedConfig{
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

// TestSpillSegmentBounded: under the reference workload at a one-byte
// budget, after every compaction the store's directory holds at most two
// files, and their bytes stay within twice the live run bytes plus one
// run: dead bytes left by compactions are reclaimed by replacing the
// segment, not kept for the rest of the search.
func TestSpillSegmentBounded(t *testing.T) {
	st := newVisitedSet(normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()}))
	defer st.close()
	compactions := 0
	segments := map[string]bool{}
	driveReferenceWorkload(t, st, func() {
		if st.compactions == compactions {
			return
		}
		compactions = st.compactions
		ents, err := os.ReadDir(st.dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) > 2 {
			t.Fatalf("after compaction %d the store holds %d files", compactions, len(ents))
		}
		var onDisk, largest int64
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			onDisk += fi.Size()
			segments[e.Name()] = true
		}
		for i := range st.shards {
			for _, r := range st.shards[i].runs {
				largest = max(largest, r.size)
			}
		}
		if live := st.liveBytes(); onDisk > 2*live+largest {
			t.Fatalf("after compaction %d the store holds %d bytes for %d live run bytes (largest run %d)",
				compactions, onDisk, live, largest)
		}
	})
	if compactions == 0 || len(segments) < 2 {
		t.Fatalf("%d compactions over %d segment files: the bound was never exercised", compactions, len(segments))
	}
}

// TestSpillFingerprintDefiniteMiss: a probe whose digest matches no
// fingerprint of any run's candidate block answers "absent" without
// reading the segment. The segment file is closed first, so any read
// would panic; a probe of a spilled encoding shows that it does.
func TestSpillFingerprintDefiniteMiss(t *testing.T) {
	st := newVisitedSet(normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()}))
	defer st.close()
	for i := 0; i < 5000; i++ {
		enc := []byte(fmt.Sprintf("state-encoding-%06d", i))
		st.insert(st.hash(enc), enc, 0)
	}
	spilled := []byte("state-encoding-000000")
	if i, _ := st.shards[st.hash(spilled)&(visitedShards-1)].find(st.hash(spilled), spilled); i >= 0 {
		t.Fatalf("the first encoding inserted is still resident")
	}
	type probe struct {
		h   uint64
		enc []byte
	}
	var misses []probe
	for i := 0; len(misses) < 1000; i++ {
		enc := []byte(fmt.Sprintf("absent-encoding-%06d", i))
		h := st.hash(enc)
		sh := &st.shards[h&(visitedShards-1)]
		if len(sh.runs) == 0 {
			t.Fatalf("shard %d never spilled", h&(visitedShards-1))
		}
		definite := true
		for _, r := range sh.runs {
			if lo, hi := r.blocks(h); r.mayHold(lo, hi, h) {
				definite = false
			}
		}
		if definite {
			misses = append(misses, probe{h, enc})
		}
	}
	if err := st.seg.f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range misses {
		if !st.novel(p.h, p.enc, 0) {
			t.Fatalf("absent encoding %q not novel", p.enc)
		}
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "reading run block") {
				t.Fatalf("probing a spilled encoding over a closed segment: panic %q, want a read failure", msg)
			}
		}()
		st.novel(st.hash(spilled), spilled, 0)
	}()
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
