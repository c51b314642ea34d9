package telemetry

import (
	"bytes"
	"testing"
)

// runAdaptive drives an adaptive collector over cycles [0, n) using the
// producer protocol, feeding per-sample channel activity from drive
// (called with the sample cycle; returns busy channels, blocked
// channels, live count).
func runAdaptive(c *Collector, n int, drive func(cycle int) (busy, blocked []int, live int)) {
	var flits int64
	for now := 0; now < n; now++ {
		if !c.Due(now) {
			continue
		}
		b, o, bl := c.Accum()
		busy, blocked, live := drive(now)
		for _, ch := range busy {
			b[ch]++
			o[ch]++
		}
		for _, ch := range blocked {
			bl[ch]++
		}
		flits++
		c.FinishSample(now, flits, live)
	}
}

func TestAdaptiveStrideBacksOffWhenQuiet(t *testing.T) {
	c := NewCollector(64, Config{Stride: 8, FrameEvery: 4, Adaptive: true})
	if c.CurrentStride() != 8 {
		t.Fatalf("initial stride %d, want base 8", c.CurrentStride())
	}
	// A silent network: every sample is quiet, so every quietStreakLen
	// samples the stride doubles until it hits the 16×base cap.
	runAdaptive(c, 20000, func(int) ([]int, []int, int) { return nil, nil, 0 })
	if got, want := c.CurrentStride(), 16*8; got != want {
		t.Fatalf("stride after long quiet run = %d, want cap %d", got, want)
	}
}

func TestAdaptiveStrideTightensWhenHot(t *testing.T) {
	c := NewCollector(8, Config{Stride: 4, FrameEvery: 4, Adaptive: true, MaxStride: 32})
	// Quiet phase: back off to the cap.
	runAdaptive(c, 4000, func(int) ([]int, []int, int) { return nil, nil, 0 })
	if c.CurrentStride() != 32 {
		t.Fatalf("stride after quiet phase = %d, want 32", c.CurrentStride())
	}
	// Hot phase: blocked flits force a halving per sample back to base.
	last := 4000 - (4000-1)%1 // continue cycles after the quiet run
	runAdaptive2 := func(n int, drive func(int) ([]int, []int, int)) {
		var flits int64 = 1 << 20
		for now := last; now < last+n; now++ {
			if !c.Due(now) {
				continue
			}
			b, _, bl := c.Accum()
			busy, blocked, live := drive(now)
			for _, ch := range busy {
				b[ch]++
			}
			for _, ch := range blocked {
				bl[ch]++
			}
			flits++
			c.FinishSample(now, flits, live)
		}
	}
	runAdaptive2(1000, func(int) ([]int, []int, int) {
		return []int{0, 1, 2, 3}, []int{4, 5}, 6
	})
	if c.CurrentStride() != 4 {
		t.Fatalf("stride after hot phase = %d, want base 4", c.CurrentStride())
	}
}

func TestAdaptiveStrideNeverBelowBaseOrAboveCap(t *testing.T) {
	c := NewCollector(4, Config{Stride: 8, FrameEvery: 2, Adaptive: true, MaxStride: 16})
	seen := map[int]bool{}
	for now, flits := 0, int64(0); now < 5000; now++ {
		if !c.Due(now) {
			continue
		}
		b, _, bl := c.Accum()
		// Alternate hot and quiet stretches.
		if (now/500)%2 == 0 {
			b[0] += 9
			bl[1] += 3
		}
		flits++
		c.FinishSample(now, flits, 1)
		seen[c.CurrentStride()] = true
		if s := c.CurrentStride(); s < 8 || s > 16 {
			t.Fatalf("stride %d escaped [8,16]", s)
		}
	}
	if !seen[8] || !seen[16] {
		t.Fatalf("expected both bounds visited, saw %v", seen)
	}
}

func TestAdaptiveFrameRecordsStride(t *testing.T) {
	c := NewCollector(16, Config{Stride: 2, FrameEvery: 2, Adaptive: true, MaxStride: 8})
	runAdaptive(c, 600, func(int) ([]int, []int, int) { return nil, nil, 0 })
	c.Flush()
	frames, widened := 0, false
	var buf []byte
	c.Window().Frames(func(f *Frame) {
		if f.Stride < 2 || f.Stride > 8 {
			t.Fatalf("frame %d stride %d outside [2,8]", f.Index, f.Stride)
		}
		if f.Stride > 2 {
			widened = true
		}
		if frames == 0 {
			buf = f.AppendJSON(buf)
		}
		frames++
	})
	if frames == 0 {
		t.Fatal("no frames")
	}
	if !widened {
		t.Fatal("stride trajectory never widened over a quiet run")
	}
	if !bytes.Contains(buf, []byte(`"stride":`)) {
		t.Fatalf("frame JSON missing stride field: %s", buf)
	}
}

// TestAdaptiveStreamDeterminism re-runs the same synthetic campaign and
// requires byte-identical frame JSON, including the stride trajectory.
func TestAdaptiveStreamDeterminism(t *testing.T) {
	run := func() []byte {
		c := NewCollector(32, Config{Stride: 4, FrameEvery: 4, Adaptive: true})
		var out []byte
		c.OnFrame = func(f *Frame) { out = f.AppendJSON(out); out = append(out, '\n') }
		runAdaptive(c, 3000, func(now int) ([]int, []int, int) {
			if (now/300)%3 == 0 {
				return []int{now % 32, (now * 7) % 32}, []int{(now * 3) % 32}, 5
			}
			return nil, nil, 0
		})
		c.Flush()
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("adaptive frame streams differ between identical runs")
	}
	if len(a) == 0 {
		t.Fatal("empty frame stream")
	}
}

func TestAdaptiveSummaryFields(t *testing.T) {
	c := NewCollector(8, Config{Stride: 4, Adaptive: true, MaxStride: 8})
	runAdaptive(c, 500, func(int) ([]int, []int, int) { return nil, nil, 0 })
	s := c.Summary(nil)
	if !s.Adaptive {
		t.Fatal("summary missing adaptive flag")
	}
	if s.FinalStride != c.CurrentStride() || s.FinalStride != 8 {
		t.Fatalf("final stride %d, want %d", s.FinalStride, c.CurrentStride())
	}
	// Fixed-stride summaries leave the fields zero so existing JSON is
	// byte-stable.
	if s2 := NewCollector(8, Config{Stride: 4}).Summary(nil); s2.Adaptive || s2.FinalStride != 0 {
		t.Fatalf("fixed-stride summary grew adaptive fields: %+v", s2)
	}
}
