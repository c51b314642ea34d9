package mcheck

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// runEntry is one run entry as the spill tests build it.
type runEntry struct {
	h      uint64
	enc    []byte
	budget int32
}

// writeRun writes entries, sorted by (digest, encoding) and distinct, as
// one run at the end of v's segment.
func writeRun(v *visitedSet, entries []runEntry) *spillRun {
	w := v.newRunWriter(len(entries))
	for _, e := range entries {
		w.add(e.h, e.enc, e.budget)
	}
	return w.finish()
}

// readRun reads every entry of r through the block reader compaction
// uses.
func readRun(r *spillRun) []runEntry {
	var out []runEntry
	var rd runReader
	rd.load(r, 0)
	for rd.entry(); rd.run != nil; rd.advance() {
		out = append(out, runEntry{h: rd.h, enc: slices.Clone(rd.key), budget: rd.budget})
	}
	return out
}

// FuzzSpillRun: the visited set's run files are read back mid-search, so
//   - any bytes read as a run block either decode entry by entry or stop
//     at an error from decodeEntry, never a panic;
//   - any sorted entry set the run writer writes comes back exactly, from
//     a lookup of each entry, from the block reader compaction uses, and
//     from a compaction of the run with a newer run that upgrades every
//     other entry's budget.
//
// The seeds are the first blocks of runs that TestSpillVisitedMatchesReference's
// workload writes at a one-byte budget, raw and as parsed entries.
func FuzzSpillRun(f *testing.F) {
	seedStore := newVisitedSet(normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: f.TempDir()}))
	driveReferenceWorkload(f, seedStore, nil)
	for i := 0; i < 4; i++ {
		r := seedStore.shards[i].runs[0]
		var rd runReader
		rd.load(r, 0)
		f.Add(slices.Clone(rd.block))
		var entries []batchEntry
		for rd.more() {
			rd.entry()
			// Digests become 16-bit nodes, several entries to a digest.
			entries = append(entries, batchEntry{enc: slices.Clone(rd.key), budget: int(rd.budget), node: int32(len(entries) / 4)})
		}
		f.Add(formatBatchEntries(entries))
	}
	seedStore.close()

	v := newVisitedSet(normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: f.TempDir()}))
	f.Cleanup(v.close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var key []byte
		for pos := 0; pos < len(data); {
			_, _, end, err := decodeEntry(data, pos, &key)
			if err != nil {
				break
			}
			if end <= pos || end > len(data) {
				t.Fatalf("entry at %d ends at %d of %d", pos, end, len(data))
			}
			pos = end
		}

		var entries []runEntry
		for _, e := range parseBatchEntries(data) {
			entries = append(entries, runEntry{h: uint64(e.node), enc: e.enc, budget: int32(e.budget)})
		}
		slices.SortFunc(entries, runEntryCmp)
		entries = slices.CompactFunc(entries, func(a, b runEntry) bool { return runEntryCmp(a, b) == 0 })
		if len(entries) == 0 {
			return
		}
		run := writeRun(v, entries)
		if run.count != len(entries) {
			t.Fatalf("run counts %d entries, wrote %d", run.count, len(entries))
		}
		var rd runReader
		for _, e := range entries {
			if b, ok := run.lookup(e.h, e.enc, &rd); !ok || b != e.budget {
				t.Fatalf("lookup(%d, %x) = %d, %v; want %d", e.h, e.enc, b, ok, e.budget)
			}
			miss := append(slices.Clone(e.enc), 0)
			if _, found := slices.BinarySearchFunc(entries, runEntry{h: e.h, enc: miss}, runEntryCmp); !found {
				if _, ok := run.lookup(e.h, miss, &rd); ok {
					t.Fatalf("lookup(%d, %x) found an encoding never written", e.h, miss)
				}
			}
		}
		if got := readRun(run); !slices.EqualFunc(got, entries, runEntryEqual) {
			t.Fatalf("block reader returned %d entries, want %d: %v", len(got), len(entries), got)
		}

		// Compaction keeps the newer run's record of each encoding.
		var upgrades []runEntry
		for i := 0; i < len(entries); i += 2 {
			e := entries[i]
			e.budget++
			upgrades = append(upgrades, e)
			entries[i] = e
		}
		sh := &v.shards[0]
		v.addRun(sh, run)
		v.addRun(sh, writeRun(v, upgrades))
		v.compact(sh)
		got := readRun(sh.runs[0])
		v.dropRuns(sh)
		if !slices.EqualFunc(got, entries, runEntryEqual) {
			t.Fatalf("compaction returned %d entries, want %d: %v", len(got), len(entries), got)
		}
	})
}

// runEntryCmp orders run entries as a run stores them: by digest, then
// encoding.
func runEntryCmp(a, b runEntry) int {
	if c := cmp.Compare(a.h, b.h); c != 0 {
		return c
	}
	return bytes.Compare(a.enc, b.enc)
}

func runEntryEqual(a, b runEntry) bool {
	return a.h == b.h && bytes.Equal(a.enc, b.enc) && a.budget == b.budget
}

// TestCorruptRunBlock: a corrupt run entry is an error from decodeEntry,
// and a lookup or compaction that reads it panics naming the run file and
// the offset, never with a runtime error from a bad slice bound.
func TestCorruptRunBlock(t *testing.T) {
	uv := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	// A valid first entry "abc" (budget 1, digest 0) to share a prefix with.
	first := append(uv(0, 3), "abc"...)
	first = append(first, uv(1, 0)...)
	cases := []struct {
		name  string
		block []byte
		want  string
	}{
		{"overlong varint", bytes.Repeat([]byte{0x80}, 11), "overlong varint at offset 0"},
		{"value above MaxInt32", append(uv(0, math.MaxInt32+1), "xyz"...), "out of range"},
		{"suffix length 2^63", append(uv(0, 1<<63), "xyz"...), "out of range"},
		{"shared longer than previous key", append(first, append(uv(4, 1), "d"...)...), "longer than the previous key"},
		{"suffix past block", append(uv(0, 12), "short"...), "runs past the end"},
	}
	v := newVisitedSet(normalizeVisitedConfig(VisitedConfig{Backend: VisitedSpill, MemBudget: 1, SpillDir: t.TempDir()}))
	defer v.close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var key []byte
			var err error
			for pos := 0; err == nil; {
				_, _, pos, err = decodeEntry(tc.block, pos, &key)
				if err == nil && pos == len(tc.block) {
					t.Fatal("corrupt block decoded without an error")
				}
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decodeEntry error %q, want it to mention %q", err, tc.want)
			}

			// The corrupt block follows a valid run in the segment, so the
			// offset a panic names is past the run's base.
			writeRun(v, []runEntry{{h: 1, enc: []byte("valid"), budget: 1}})
			base := v.seg.size
			if _, err := v.seg.Write(tc.block); err != nil {
				t.Fatal(err)
			}
			// Both entries are fingerprinted like the lookup's digest, so
			// the lookup reads the block.
			probe := runFingerprint(math.MaxUint64)
			run := &spillRun{seg: v.seg, base: base, size: int64(len(tc.block)),
				fence: []runFence{{h: 0, off: 0}}, fp: []uint16{probe, probe}, count: 2}
			wantPanic := fmt.Sprintf("corrupt run block in %s at offset ", v.seg.f.Name())
			expectPanic := func(what string, fn func()) {
				t.Helper()
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, wantPanic) || !strings.Contains(msg, tc.want) {
						t.Fatalf("%s of a corrupt run panicked with %q, want %q and %q", what, msg, wantPanic, tc.want)
					}
					var off int64
					fmt.Sscan(msg[strings.Index(msg, wantPanic)+len(wantPanic):], &off)
					if off < base || off >= base+int64(len(tc.block)) {
						t.Fatalf("%s panic names offset %d, outside the block at [%d, %d)", what, off, base, base+int64(len(tc.block)))
					}
				}()
				fn()
			}
			expectPanic("lookup", func() { run.lookup(math.MaxUint64, []byte("absent"), &runReader{}) })
			sh := &v.shards[1]
			sh.runs = []*spillRun{run, run}
			expectPanic("compaction", func() { v.compact(sh) })
		})
	}
}
