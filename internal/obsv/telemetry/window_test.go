package telemetry

import (
	"slices"
	"testing"
)

// mkFrame builds a synthetic closed frame with deterministic counters.
func mkFrame(channels, idx int) *Frame {
	f := &Frame{
		Index:      idx,
		Start:      idx * 100,
		End:        (idx + 1) * 100,
		Samples:    10,
		Stride:     8,
		FlitsDelta: int64(idx * 3),
		Live:       idx % 5,
		Busy:       make([]uint32, channels),
		Occ:        make([]uint32, channels),
		Blocked:    make([]uint32, channels),
	}
	// A few hot channels whose counters drift slowly frame to frame —
	// the temporal-stability shape the delta encoding exploits.
	for _, ch := range []int{1, channels / 2, channels - 1} {
		f.Busy[ch] = uint32(50 + idx%3)
		f.Occ[ch] = uint32(100 + idx%2)
	}
	f.Blocked[channels/2] = uint32(idx % 4)
	return f
}

func TestWindowRoundTrip(t *testing.T) {
	const channels, n = 64, 50
	w := NewWindow(channels, 1<<20) // ample budget: nothing evicts
	want := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		f := mkFrame(channels, i)
		w.Append(f)
		want = append(want, f)
	}
	var got []*Frame
	w.Frames(func(f *Frame) {
		cp := *f
		cp.Busy = append([]uint32(nil), f.Busy...)
		cp.Occ = append([]uint32(nil), f.Occ...)
		cp.Blocked = append([]uint32(nil), f.Blocked...)
		got = append(got, &cp)
	})
	if len(got) != n {
		t.Fatalf("decoded %d frames, want %d", len(got), n)
	}
	for i, f := range got {
		ref := want[i]
		if f.Index != ref.Index || f.Start != ref.Start || f.End != ref.End ||
			f.Samples != ref.Samples || f.Stride != ref.Stride ||
			f.FlitsDelta != ref.FlitsDelta || f.Live != ref.Live {
			t.Fatalf("frame %d scalars: got %+v want %+v", i, f, ref)
		}
		for c := 0; c < channels; c++ {
			if f.Busy[c] != ref.Busy[c] || f.Occ[c] != ref.Occ[c] || f.Blocked[c] != ref.Blocked[c] {
				t.Fatalf("frame %d channel %d: got (%d,%d,%d) want (%d,%d,%d)",
					i, c, f.Busy[c], f.Occ[c], f.Blocked[c],
					ref.Busy[c], ref.Occ[c], ref.Blocked[c])
			}
		}
	}
	st := w.Stats()
	if st.Frames != n || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.SpanStart != 0 || st.SpanEnd != n*100 {
		t.Fatalf("span [%d,%d], want [0,%d]", st.SpanStart, st.SpanEnd, n*100)
	}
	if st.CompressionX100 < 200 {
		t.Fatalf("compression %d (×100) — delta encoding should beat 2× on a stable stream", st.CompressionX100)
	}
}

func TestWindowEvictionKeepsDecodableSuffix(t *testing.T) {
	const channels, n = 128, 400
	w := NewWindow(channels, 2<<10) // tight: forces block eviction
	for i := 0; i < n; i++ {
		w.Append(mkFrame(channels, i))
	}
	st := w.Stats()
	if st.Dropped == 0 {
		t.Fatal("tight budget never evicted")
	}
	if st.Frames+st.Dropped != n {
		t.Fatalf("frames %d + dropped %d != %d", st.Frames, st.Dropped, n)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("retained %d bytes over budget %d", st.Bytes, st.Budget)
	}
	// Eviction is whole restart blocks from the front, so the retained
	// history is a contiguous suffix that decodes exactly.
	first := -1
	count := 0
	w.Frames(func(f *Frame) {
		if first < 0 {
			first = f.Index
			if f.Index != st.Dropped {
				t.Fatalf("first retained index %d, want %d", f.Index, st.Dropped)
			}
			if f.Index%windowRestart != 0 {
				t.Fatalf("suffix does not start on a restart frame: %d", f.Index)
			}
		}
		ref := mkFrame(channels, f.Index)
		if f.Start != ref.Start || f.End != ref.End || f.Busy[1] != ref.Busy[1] ||
			f.Blocked[channels/2] != ref.Blocked[channels/2] {
			t.Fatalf("frame %d decoded wrong after eviction", f.Index)
		}
		count++
	})
	if count != st.Frames {
		t.Fatalf("decoded %d frames, stats say %d", count, st.Frames)
	}
	if st.SpanStart != st.Dropped*100 {
		t.Fatalf("span start %d, want %d", st.SpanStart, st.Dropped*100)
	}
}

// TestWindowHistoryMultiple checks the acceptance figure: at equal
// memory, the delta window retains ≥8× the cycle history of raw,
// uncompressed frames.
func TestWindowHistoryMultiple(t *testing.T) {
	const channels = 256
	budget := 8 << 10
	w := NewWindow(channels, budget)
	for i := 0; i < 2000; i++ {
		w.Append(mkFrame(channels, i))
	}
	st := w.Stats()
	if st.Dropped == 0 {
		t.Fatal("window never filled — ratio not meaningful")
	}
	// Raw frames at the same budget number budget/rawFrameBytes.
	rawFrames := budget / rawFrameBytes(channels)
	if st.Frames < 8*rawFrames {
		t.Fatalf("window retains %d frames vs %d raw — under the 8× bar", st.Frames, rawFrames)
	}
	if st.HistoryX100 < 800 {
		t.Fatalf("history_x100 = %d, want >= 800", st.HistoryX100)
	}
	if got := st.Raw * 100 / int64(budget); st.HistoryX100 != got {
		t.Fatalf("history_x100 %d inconsistent with raw/budget %d", st.HistoryX100, got)
	}
	// The EXPERIMENTS.md long-horizon table is regenerated from this line.
	t.Logf("budget %d B: %d frames retained (raw: %d), %d dropped, compression %.2fx, history %.2fx",
		budget, st.Frames, rawFrames, st.Dropped,
		float64(st.CompressionX100)/100, float64(st.HistoryX100)/100)
}

func TestWindowAppendSteadyStateZeroAlloc(t *testing.T) {
	const channels = 64
	w := NewWindow(channels, 4<<10)
	f := mkFrame(channels, 0)
	idx := 0
	push := func() {
		*f = *mkFrame(channels, idx) // reuse: mkFrame alloc outside measurement below
		idx++
		w.Append(f)
	}
	// Warm past the first evictions so buffers hit their high-water marks.
	for i := 0; i < 600; i++ {
		push()
	}
	frames := [3]*Frame{mkFrame(channels, 0), mkFrame(channels, 0), mkFrame(channels, 0)}
	avg := testing.AllocsPerRun(300, func() {
		fr := frames[idx%3]
		fr.Index = idx
		fr.Start = idx * 100
		fr.End = (idx + 1) * 100
		fr.Blocked[channels/2] = uint32(idx % 4)
		idx++
		w.Append(fr)
	})
	if avg != 0 {
		t.Fatalf("steady-state Append allocates %v allocs/op, want 0", avg)
	}
}

func TestWindowEmptyStats(t *testing.T) {
	w := NewWindow(16, 1<<12)
	st := w.Stats()
	if st.Frames != 0 || st.Bytes != 0 || st.CompressionX100 != 0 || st.HistoryX100 != 0 {
		t.Fatalf("empty window stats %+v", st)
	}
	w.Frames(func(*Frame) { t.Fatal("visit on empty window") })
}

// fuzzFrameBytes is how many fuzz bytes FuzzWindowRoundTrip turns into
// one frame.
const fuzzFrameBytes = 8

// FuzzWindowRoundTrip appends frames built from fuzz bytes to a window
// under the minimum budget and checks that Frames visits exactly the
// retained suffix, every visited frame equals the frame appended at its
// index, and the Stats frame and drop counts add up. Frame i starts from
// mkFrame(i); its eight bytes move the span, scalars and one channel's
// counters, so frames stay shaped like a collector's (consecutive
// indices, Start at or after the previous End) while deltas range from
// zero to the full uint32 width.
func FuzzWindowRoundTrip(f *testing.F) {
	const channels = 16
	f.Add(make([]byte, 80*fuzzFrameBytes))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	ramp := make([]byte, 200*fuzzFrameBytes)
	for i := range ramp {
		ramp[i] = byte(i * 37)
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWindow(channels, 1<<10)
		var appended []*Frame
		prevEnd := 0
		for len(data) >= fuzzFrameBytes {
			b := data[:fuzzFrameBytes]
			data = data[fuzzFrameBytes:]
			fr := mkFrame(channels, len(appended))
			fr.Start = prevEnd + int(b[0])
			fr.End = fr.Start + int(b[1])
			fr.Samples = int(b[2])
			fr.Stride = 1 + int(b[3])
			fr.FlitsDelta += int64(b[4]) << (b[5] % 40)
			fr.Live = int(b[5])
			ch, shift := int(b[6])%channels, b[6]%25
			fr.Busy[ch] ^= uint32(b[7]) << shift
			fr.Occ[(ch+1)%channels] += uint32(b[7]) << (24 - shift)
			fr.Blocked[(ch+2)%channels] = uint32(b[7]&3) * uint32(b[5])
			prevEnd = fr.End
			w.Append(fr)
			appended = append(appended, fr)
		}
		st := w.Stats()
		if st.Frames+st.Dropped != len(appended) {
			t.Fatalf("frames %d + dropped %d != %d appended", st.Frames, st.Dropped, len(appended))
		}
		if st.Bytes > st.Budget && st.Frames >= windowRestart {
			t.Fatalf("%d bytes retained over budget %d with a sealed block left to evict", st.Bytes, st.Budget)
		}
		if st.Raw != int64(st.Frames*rawFrameBytes(channels)) {
			t.Fatalf("raw %d bytes for %d frames", st.Raw, st.Frames)
		}
		next := st.Dropped
		w.Frames(func(got *Frame) {
			if next >= len(appended) {
				t.Fatalf("visited frame %d past the %d appended", got.Index, len(appended))
			}
			want := appended[next]
			if got.Index != want.Index || got.Start != want.Start || got.End != want.End ||
				got.Samples != want.Samples || got.Stride != want.Stride ||
				got.FlitsDelta != want.FlitsDelta || got.Live != want.Live ||
				!slices.Equal(got.Busy, want.Busy) || !slices.Equal(got.Occ, want.Occ) ||
				!slices.Equal(got.Blocked, want.Blocked) {
				t.Fatalf("frame %d decoded as %+v, appended %+v", next, got, want)
			}
			if next == st.Dropped && got.Start != st.SpanStart {
				t.Fatalf("span start %d, first retained frame starts at %d", st.SpanStart, got.Start)
			}
			if next == len(appended)-1 && got.End != st.SpanEnd {
				t.Fatalf("span end %d, last frame ends at %d", st.SpanEnd, got.End)
			}
			next++
		})
		if next != len(appended) {
			t.Fatalf("visited frames %d..%d, want the suffix ending at %d", st.Dropped, next, len(appended))
		}
	})
}
