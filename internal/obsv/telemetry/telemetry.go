// Package telemetry is the sampling half of the observability layer: a
// continuous, low-cost telemetry plane for long-horizon simulation runs,
// complementing internal/obsv's discrete per-event tracing.
//
// Event tracing records *what happened* (every flit move, every wait-for
// edge) and is priceless on paper-sized scenarios but unusable at
// load-test scale: a 10⁸-cycle open-loop run emits billions of events.
// The telemetry plane instead records *how the network looks* on a
// configurable cycle stride — per-channel utilization, flit occupancy and
// blocked-header counts accumulated into fixed-size arrays — so the cost
// is an O(channels + messages) scan every Stride cycles and zero
// allocations, regardless of run length.
//
// Samples aggregate into Frames (FrameEvery samples each), which the
// collector publishes through OnFrame and appends to its
// delta-compressed Window under a fixed byte budget, so the run's recent
// history stays bounded however long the run.
// Everything is deterministic: frames carry only logical quantities
// (cycles, counts), sampling cycles are a pure function of the cycle
// counter, and the JSON encodings are hand-rolled with fixed key order —
// two identical runs produce byte-identical frame streams.
package telemetry

import (
	"strconv"

	"repro/internal/obsv"
)

// Config sizes a Collector. Zero values select the defaults.
type Config struct {
	// Stride is the sampling period in cycles: the simulator takes one
	// telemetry sample on every cycle divisible by Stride. Default 64.
	// With Adaptive on, Stride is the base (tightest) stride.
	Stride int
	// FrameEvery is the number of samples aggregated into one frame.
	// Default 16 (one frame per 1024 cycles at the default stride).
	FrameEvery int
	// Adaptive enables stride adaptation: the collector backs the
	// sampling stride off geometrically (doubling, up to MaxStride) while
	// the network is quiet — low busy+blocked heat and a stable live
	// count — and tightens it back toward Stride as utilization
	// approaches saturation. The stride trajectory is a pure function of
	// the sampled (logical, deterministic) state, so adapted frame
	// streams stay byte-identical across runs and worker counts.
	Adaptive bool
	// MaxStride caps the adaptive backoff. Default 16×Stride.
	MaxStride int
	// WindowBytes is the byte budget of the collector's frame history,
	// a delta-compressed Window that evicts its oldest restart blocks when
	// over budget — a multi-hour history at fixed memory. Default: the
	// raw size of 64 frames, 64 × (12 × channels + 40) bytes.
	WindowBytes int
}

func (c Config) withDefaults(channels int) Config {
	if c.Stride < 1 {
		c.Stride = 64
	}
	if c.FrameEvery < 1 {
		c.FrameEvery = 16
	}
	if c.MaxStride < c.Stride {
		c.MaxStride = 16 * c.Stride
	}
	if c.WindowBytes < 1 {
		c.WindowBytes = defaultWindowFrames * rawFrameBytes(channels)
	}
	return c
}

// Frame is one closed aggregation window: FrameEvery samples (fewer for a
// final partial frame) over the cycle span [Start, End]. The per-channel
// slices of a frame handed to OnFrame or a Window.Frames visit are reused
// afterwards — copy what must outlive the call.
type Frame struct {
	// Index is the frame's ordinal from the start of the run (frame 0 may
	// have been evicted from the window; Index keeps the stream
	// addressable).
	Index int
	// Start and End are the cycles of the frame's first and last sample.
	Start, End int
	// Samples is the number of telemetry samples aggregated.
	Samples int
	// Stride is the sampling stride in effect when the frame closed. For
	// a fixed-stride collector this is the configured stride; with
	// adaptive sampling it records the stride trajectory frame by frame,
	// which is what makes adapted streams self-describing.
	Stride int
	// Busy[c] counts the samples at which channel c was held by a message;
	// Busy[c]/Samples is the channel's utilization over the frame.
	Busy []uint32
	// Occ[c] sums channel c's buffered flit count over the samples;
	// Occ[c]/Samples is its mean flit occupancy.
	Occ []uint32
	// Blocked[c] counts the samples at which channel c participated in a
	// blocking dependency: held by a blocked message (a resource pinned by
	// a stuck worm) or waited for by a blocked header (Definition 6's
	// "waits for") — the congestion signal that precedes a deadlock cycle
	// closing.
	Blocked []uint32
	// FlitsDelta is the number of flits consumed at destinations during
	// the frame; Live is the live-message count at the closing sample.
	FlitsDelta int64
	Live       int
}

// AppendJSON appends the frame as one deterministic JSON object. Channels
// with no activity are omitted; active ones are emitted in channel-ID
// order as [id, busy, occ, blocked] quadruples.
func (f *Frame) AppendJSON(b []byte) []byte {
	b = append(b, `{"frame":`...)
	b = strconv.AppendInt(b, int64(f.Index), 10)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(f.Start), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(f.End), 10)
	b = append(b, `,"samples":`...)
	b = strconv.AppendInt(b, int64(f.Samples), 10)
	b = append(b, `,"stride":`...)
	b = strconv.AppendInt(b, int64(f.Stride), 10)
	b = append(b, `,"flits":`...)
	b = strconv.AppendInt(b, f.FlitsDelta, 10)
	b = append(b, `,"live":`...)
	b = strconv.AppendInt(b, int64(f.Live), 10)
	b = append(b, `,"channels":[`...)
	first := true
	for c := range f.Busy {
		if f.Busy[c] == 0 && f.Occ[c] == 0 && f.Blocked[c] == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(f.Busy[c]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(f.Occ[c]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(f.Blocked[c]), 10)
		b = append(b, ']')
	}
	b = append(b, `]}`...)
	return b
}

// Collector accumulates per-channel telemetry samples into frames. Attach
// one to a simulator with sim.SetTelemetry; the simulator fills the
// current sample's arrays (Accum) and closes it (FinishSample) on its own
// deterministic schedule. Everything the steady-state path touches is
// preallocated by NewCollector, so sampling allocates nothing — the same
// contract as the simulator's scratch arenas.
//
// A Collector is per-run working memory, not simulation state: like the
// tracer, it never crosses Clone/CopyFrom and is not reset by Reset.
type Collector struct {
	cfg      Config
	channels int

	// Current accumulating frame. frame's counter slices alias busy, occ
	// and blocked; closeFrame fills its scalars and hands it out.
	busy, occ, blocked []uint32
	samples            int
	frameStart         int
	frame              Frame

	// Adaptive-stride state. stride is the current sampling period; next
	// the next sampling cycle (adaptive mode only — fixed mode stays on
	// the pure now%Stride==0 schedule). The prev* fields hold the
	// previous sample's accumulator sums and live count, so each sample's
	// own heat (not the frame's running total) drives the policy.
	stride         int
	next           int
	quietStreak    int
	prevBusySum    uint64
	prevBlockedSum uint64
	prevLive       int

	closed int // frames closed so far

	// Run totals, accumulated at frame close (plus the current partials
	// at Summary time).
	totBusy, totOcc, totBlocked []uint64
	totSamples                  int64
	peakBusy                    uint32 // highest per-frame Busy[c] seen
	peakSamples                 int    // Samples of the frame holding peakBusy

	// Last finished sample, so a partial frame can be flushed at run end.
	lastCycle int
	lastFlits int64
	lastLive  int
	prevFlits int64 // FlitsConsumed at the previous frame boundary

	// window receives every closed frame as a delta-compressed record
	// under a fixed byte budget: the collector's only frame history.
	window *Window

	// OnFrame, when set, is called with each frame as it closes (the
	// pointer aliases the accumulators — consume it synchronously). It
	// feeds the telemetry_* gauges; nil (the default) keeps the
	// frame-close path allocation-free.
	OnFrame func(*Frame)
}

// defaultWindowFrames sizes the window of a collector built without
// Config.WindowBytes: the budget is this many frames at their raw,
// uncompressed size.
const defaultWindowFrames = 64

// NewCollector returns a collector for a network with the given channel
// count, with every steady-state buffer preallocated.
func NewCollector(channels int, cfg Config) *Collector {
	cfg = cfg.withDefaults(channels)
	c := &Collector{
		cfg:        cfg,
		channels:   channels,
		busy:       make([]uint32, channels),
		occ:        make([]uint32, channels),
		blocked:    make([]uint32, channels),
		totBusy:    make([]uint64, channels),
		totOcc:     make([]uint64, channels),
		totBlocked: make([]uint64, channels),
		lastCycle:  -1,
		stride:     cfg.Stride,
		window:     NewWindow(channels, cfg.WindowBytes),
	}
	c.frame.Busy, c.frame.Occ, c.frame.Blocked = c.busy, c.occ, c.blocked
	return c
}

// Stride returns the base sampling period in cycles.
func (c *Collector) Stride() int { return c.cfg.Stride }

// CurrentStride returns the stride currently in effect: the base stride
// for a fixed collector, the adapted one for an adaptive collector.
func (c *Collector) CurrentStride() int { return c.stride }

// Window returns the collector's frame history.
func (c *Collector) Window() *Window { return c.window }

// Due reports whether cycle now is a sampling cycle. Fixed collectors
// sample on every cycle divisible by the stride; adaptive collectors
// sample when the adapted schedule (last sample + current stride)
// reaches now — both are pure functions of sampled logical state, so
// sampling schedules are deterministic across runs and worker counts.
func (c *Collector) Due(now int) bool {
	if !c.cfg.Adaptive {
		return now%c.cfg.Stride == 0
	}
	return now >= c.next
}

// Accum returns the current sample's per-channel accumulators for the
// producer to fill: busy (increment once per held channel), occ (add the
// buffered flit count) and blocked (increment per waited-for channel).
func (c *Collector) Accum() (busy, occ, blocked []uint32) {
	return c.busy, c.occ, c.blocked
}

// FinishSample closes the sample taken at cycle now, given the producer's
// monotone consumed-flit counter and live-message count. It closes a
// frame every FrameEvery samples and, in adaptive mode, reconsiders the
// sampling stride. Allocation-free.
func (c *Collector) FinishSample(now int, flits int64, live int) {
	if c.samples == 0 {
		c.frameStart = now
	}
	c.samples++
	c.lastCycle, c.lastFlits, c.lastLive = now, flits, live
	if c.cfg.Adaptive {
		c.adapt(live)
	}
	if c.samples >= c.cfg.FrameEvery {
		c.closeFrame()
	}
	c.next = now + c.stride
}

// Adaptive-stride policy thresholds, all integer arithmetic over one
// sample's own heat so the trajectory is exactly reproducible:
//
//   - quiet: no blocked dependency anywhere, busy channels at most 1/16
//     of the network, live count not growing. quietStreakLen consecutive
//     quiet samples double the stride (geometric backoff, capped at
//     MaxStride).
//   - hot: any blocked dependency, or at least 1/4 of channels busy —
//     utilization approaching saturation. Each hot sample halves the
//     stride back toward the base (geometric tightening), so the
//     collector re-densifies while a congestion tree is still building
//     rather than after it wedges.
//
// Between the two bands the stride holds and the quiet streak resets.
const (
	quietStreakLen = 4
	quietBusyFrac  = 16 // quiet: busyDelta <= channels/16
	hotBusyFrac    = 4  // hot:   busyDelta >= channels/4
)

// adapt applies the stride policy after one sample. The accumulators hold
// frame-running totals, so the sample's own contribution is the delta
// against the previous sample's sums (reset with the frame).
func (c *Collector) adapt(live int) {
	var busySum, blockedSum uint64
	for i := range c.busy {
		busySum += uint64(c.busy[i])
		blockedSum += uint64(c.blocked[i])
	}
	busyDelta := busySum - c.prevBusySum
	blockedDelta := blockedSum - c.prevBlockedSum
	switch {
	case blockedDelta > 0 || busyDelta*hotBusyFrac >= uint64(c.channels):
		c.quietStreak = 0
		if c.stride > c.cfg.Stride {
			c.stride /= 2
			if c.stride < c.cfg.Stride {
				c.stride = c.cfg.Stride
			}
		}
	case busyDelta*quietBusyFrac <= uint64(c.channels) && live <= c.prevLive:
		c.quietStreak++
		if c.quietStreak >= quietStreakLen {
			c.quietStreak = 0
			if c.stride < c.cfg.MaxStride {
				c.stride *= 2
				if c.stride > c.cfg.MaxStride {
					c.stride = c.cfg.MaxStride
				}
			}
		}
	default:
		c.quietStreak = 0
	}
	c.prevBusySum, c.prevBlockedSum, c.prevLive = busySum, blockedSum, live
}

// Flush closes the current partial frame, if any. Call it at run end so
// short runs (and the tail of long ones) still surface their last frame.
func (c *Collector) Flush() {
	if c.samples > 0 {
		c.closeFrame()
	}
}

func (c *Collector) closeFrame() {
	f := &c.frame
	f.Index = c.closed
	f.Start = c.frameStart
	// End is the cycle of the frame's LAST SAMPLE — the true sampled
	// span, also for partial frames flushed mid-frame by a dump.
	f.End = c.lastCycle
	f.Samples = c.samples
	f.Stride = c.stride
	f.FlitsDelta = c.lastFlits - c.prevFlits
	f.Live = c.lastLive
	c.closed++
	c.window.Append(f)
	if c.OnFrame != nil {
		c.OnFrame(f)
	}
	for i := range c.busy {
		c.totBusy[i] += uint64(c.busy[i])
		c.totOcc[i] += uint64(c.occ[i])
		c.totBlocked[i] += uint64(c.blocked[i])
		if c.busy[i] > c.peakBusy {
			c.peakBusy = c.busy[i]
			c.peakSamples = c.samples
		}
	}
	c.totSamples += int64(c.samples)
	c.prevFlits = c.lastFlits
	clear(c.busy)
	clear(c.occ)
	clear(c.blocked)
	c.prevBusySum, c.prevBlockedSum = 0, 0
	c.samples = 0
}

// LastFrame returns the most recently closed frame without its
// per-channel counters, which alias the accumulators that closing
// clears; ok is false before the first frame closes.
func (c *Collector) LastFrame() (f Frame, ok bool) {
	f = c.frame
	f.Busy, f.Occ, f.Blocked = nil, nil, nil
	return f, c.closed > 0
}

// FramesClosed returns how many frames have closed since the run started
// (including frames the window has since evicted).
func (c *Collector) FramesClosed() int { return c.closed }

// Samples returns the total number of samples taken, including the
// current partial frame.
func (c *Collector) Samples() int64 { return c.totSamples + int64(c.samples) }

// Hottest returns the channel with the highest run-total congestion —
// busy plus blocked samples, the channels that are both held and waited
// on — and that total. Ties break to the lowest channel ID. ok is false
// when nothing was sampled busy or blocked.
func (c *Collector) Hottest() (ch int, heat uint64, ok bool) {
	ch = -1
	for i := range c.totBusy {
		h := c.totBusy[i] + c.totBlocked[i] + uint64(c.busy[i]) + uint64(c.blocked[i])
		if h > heat {
			ch, heat = i, h
		}
	}
	return ch, heat, ch >= 0
}

// Util returns channel ch's run-mean utilization: the fraction of samples
// at which it was held.
func (c *Collector) Util(ch int) float64 {
	n := c.Samples()
	if n == 0 {
		return 0
	}
	return float64(c.totBusy[ch]+uint64(c.busy[ch])) / float64(n)
}

// Summary condenses a run's telemetry for manifests and reports.
type Summary struct {
	Stride  int   `json:"stride"`
	Frames  int   `json:"frames"`
	Samples int64 `json:"samples"`
	// Adaptive marks a run sampled under the adaptive-stride policy;
	// FinalStride is the stride in effect when the run ended (equal to
	// Stride for fixed collectors, omitted then).
	Adaptive    bool `json:"adaptive,omitempty"`
	FinalStride int  `json:"final_stride,omitempty"`
	// MeanUtil is the run-mean channel utilization averaged over every
	// channel; PeakUtil is the highest single-frame utilization any
	// channel reached.
	MeanUtil float64 `json:"mean_util"`
	PeakUtil float64 `json:"peak_util"`
	// HottestChannel is the channel with the highest busy+blocked sample
	// count (-1 when nothing was sampled); HottestUtil its run-mean
	// utilization and HottestBlocked its blocked-sample total.
	HottestChannel int     `json:"hottest_channel"`
	HottestUtil    float64 `json:"hottest_util"`
	HottestBlocked int64   `json:"hottest_blocked"`
	// Latency quantiles from the run's latency sketch, when one was kept.
	LatencyP50 int `json:"latency_p50,omitempty"`
	LatencyP95 int `json:"latency_p95,omitempty"`
	LatencyP99 int `json:"latency_p99,omitempty"`
}

// Summary computes the run summary, including the current partial frame.
// Pass the run's latency sketch to include its quantiles, or nil.
func (c *Collector) Summary(lat *obsv.Sketch) Summary {
	s := Summary{
		Stride:         c.cfg.Stride,
		Frames:         c.closed,
		Samples:        c.Samples(),
		HottestChannel: -1,
	}
	if c.cfg.Adaptive {
		s.Adaptive = true
		s.FinalStride = c.stride
	}
	if s.Samples > 0 {
		var busySum uint64
		for i := range c.totBusy {
			busySum += c.totBusy[i] + uint64(c.busy[i])
		}
		s.MeanUtil = float64(busySum) / (float64(s.Samples) * float64(c.channels))
	}
	if c.peakSamples > 0 {
		s.PeakUtil = float64(c.peakBusy) / float64(c.peakSamples)
	}
	if ch, _, ok := c.Hottest(); ok {
		s.HottestChannel = ch
		s.HottestUtil = c.Util(ch)
		s.HottestBlocked = int64(c.totBlocked[ch] + uint64(c.blocked[ch]))
	}
	if lat != nil && lat.Count() > 0 {
		s.LatencyP50 = lat.Quantile(50)
		s.LatencyP95 = lat.Quantile(95)
		s.LatencyP99 = lat.Quantile(99)
	}
	return s
}
