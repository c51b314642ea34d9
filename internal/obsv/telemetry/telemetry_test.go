package telemetry

import (
	"bytes"
	"testing"

	"repro/internal/obsv"
)

// fillSample pushes one synthetic sample through the collector's
// producer protocol: Due gate, Accum fill, FinishSample close.
func fillSample(c *Collector, cycle int, busy, blocked []int, flits int64, live int) {
	if !c.Due(cycle) {
		return
	}
	b, o, bl := c.Accum()
	for _, ch := range busy {
		b[ch]++
		o[ch] += 2
	}
	for _, ch := range blocked {
		bl[ch]++
	}
	c.FinishSample(cycle, flits, live)
}

func TestCollectorDue(t *testing.T) {
	c := NewCollector(4, Config{Stride: 8})
	for now := 0; now < 64; now++ {
		if got, want := c.Due(now), now%8 == 0; got != want {
			t.Fatalf("Due(%d) = %v", now, got)
		}
	}
}

// TestCollectorFrameMath drives a small collector through exact frame
// boundaries and checks every aggregated figure.
func TestCollectorFrameMath(t *testing.T) {
	c := NewCollector(4, Config{Stride: 10, FrameEvery: 3})
	var frames []Frame
	c.OnFrame = func(f *Frame) {
		cp := *f
		cp.Busy = append([]uint32(nil), f.Busy...)
		cp.Occ = append([]uint32(nil), f.Occ...)
		cp.Blocked = append([]uint32(nil), f.Blocked...)
		frames = append(frames, cp)
	}
	// Seven samples: two full frames of three plus one partial.
	for i := 0; i < 7; i++ {
		fillSample(c, i*10, []int{1}, []int{2}, int64(5*(i+1)), 3)
	}
	if c.FramesClosed() != 2 {
		t.Fatalf("FramesClosed = %d, want 2", c.FramesClosed())
	}
	if c.Samples() != 7 {
		t.Fatalf("Samples = %d, want 7 (partials included)", c.Samples())
	}
	c.Flush()
	if c.FramesClosed() != 3 || len(frames) != 3 {
		t.Fatalf("after Flush: closed %d, OnFrame saw %d", c.FramesClosed(), len(frames))
	}
	f0, f2 := frames[0], frames[2]
	if f0.Index != 0 || f0.Start != 0 || f0.End != 20 || f0.Samples != 3 {
		t.Fatalf("frame 0 span: %+v", f0)
	}
	if f0.Busy[1] != 3 || f0.Occ[1] != 6 || f0.Blocked[2] != 3 || f0.Busy[0] != 0 {
		t.Fatalf("frame 0 accumulators: %+v", f0)
	}
	if f0.FlitsDelta != 15 || f0.Live != 3 {
		t.Fatalf("frame 0 flits/live: %+v", f0)
	}
	// Frame 1 covers samples 4..6 (flits 20..30): delta 30-15=15.
	if frames[1].FlitsDelta != 15 {
		t.Fatalf("frame 1 flits delta: %+v", frames[1])
	}
	if f2.Samples != 1 || f2.Start != 60 || f2.End != 60 || f2.FlitsDelta != 5 {
		t.Fatalf("partial frame: %+v", f2)
	}
	// Flush with nothing pending is a no-op.
	c.Flush()
	if c.FramesClosed() != 3 {
		t.Fatal("empty Flush closed a frame")
	}
}

// TestCollectorDefaultWindow: without Config.WindowBytes the collector's
// window budget is the raw size of 64 frames, so the frame history holds
// no more memory than 64 uncompressed frames would.
func TestCollectorDefaultWindow(t *testing.T) {
	c := NewCollector(10, Config{})
	if got, want := c.Window().Stats().Budget, 64*(12*10+rawFrameScalars); got != want {
		t.Fatalf("default window budget = %d, want %d", got, want)
	}
	if got := NewCollector(10, Config{WindowBytes: 4 << 10}).Window().Stats().Budget; got != 4<<10 {
		t.Fatalf("configured window budget = %d, want %d", got, 4<<10)
	}
}

// TestCollectorHottest: heat is busy+blocked across the whole run
// including the current partial frame; ties break to the lowest ID.
func TestCollectorHottest(t *testing.T) {
	c := NewCollector(4, Config{Stride: 1, FrameEvery: 2})
	fillSample(c, 0, []int{1, 3}, []int{3}, 0, 2)
	fillSample(c, 1, []int{1, 3}, []int{3}, 0, 2) // frame closes
	fillSample(c, 2, []int{1, 3}, []int{3}, 0, 2) // partial
	ch, heat, ok := c.Hottest()
	if !ok || ch != 3 || heat != 6 {
		t.Fatalf("Hottest = (%d, %d, %v), want (3, 6, true)", ch, heat, ok)
	}
	if got := c.Util(1); got != 1.0 {
		t.Fatalf("Util(1) = %v, want 1.0", got)
	}
	// Tie between 1 and 3 if 1 gains blocked samples: lowest ID wins.
	b, _, bl := c.Accum()
	_ = b
	bl[1] += 3
	c.FinishSample(3, 0, 2)
	if ch, _, _ := c.Hottest(); ch != 1 {
		t.Fatalf("tie must break to lowest ID, got c%d", ch)
	}

	empty := NewCollector(2, Config{})
	if _, _, ok := empty.Hottest(); ok {
		t.Fatal("empty collector reported a hottest channel")
	}
}

// TestCollectorSummary checks the manifest block's figures.
func TestCollectorSummary(t *testing.T) {
	c := NewCollector(2, Config{Stride: 5, FrameEvery: 2})
	fillSample(c, 0, []int{0}, nil, 0, 1)
	fillSample(c, 5, []int{0}, []int{1}, 8, 1)
	fillSample(c, 10, []int{0, 1}, nil, 16, 0) // partial
	lat := obsv.NewSketch()
	for _, v := range []int{10, 20, 30, 40} {
		lat.Add(v)
	}
	s := c.Summary(lat)
	if s.Stride != 5 || s.Frames != 1 || s.Samples != 3 {
		t.Fatalf("summary shape: %+v", s)
	}
	// busy totals: c0=3, c1=1 over 3 samples × 2 channels.
	if want := 4.0 / 6.0; s.MeanUtil != want {
		t.Fatalf("MeanUtil = %v, want %v", s.MeanUtil, want)
	}
	if s.HottestChannel != 0 || s.HottestUtil != 1.0 || s.HottestBlocked != 0 {
		t.Fatalf("hottest block: %+v", s)
	}
	if s.PeakUtil != 1.0 {
		t.Fatalf("PeakUtil = %v, want 1.0", s.PeakUtil)
	}
	if s.LatencyP50 != 20 || s.LatencyP95 != 40 || s.LatencyP99 != 40 {
		t.Fatalf("latency quantiles: %+v", s)
	}

	if s := NewCollector(2, Config{}).Summary(nil); s.HottestChannel != -1 || s.Samples != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

// TestFrameJSONDeterministic: two identically-driven collectors render
// identical frame bytes, and all-zero channels are omitted.
func TestFrameJSONDeterministic(t *testing.T) {
	drive := func() []byte {
		c := NewCollector(3, Config{Stride: 2, FrameEvery: 2})
		var out []byte
		c.OnFrame = func(f *Frame) { out = f.AppendJSON(out); out = append(out, '\n') }
		for i := 0; i < 8; i++ {
			fillSample(c, i*2, []int{1}, []int{2}, int64(i), 1)
		}
		c.Flush()
		return out
	}
	a, b := drive(), drive()
	if !bytes.Equal(a, b) {
		t.Fatalf("frame streams differ:\n%s\n%s", a, b)
	}
	if bytes.Contains(a, []byte("[0,")) {
		t.Fatalf("idle channel 0 must be omitted from frame JSON: %s", a)
	}
}
