package telemetry

import "encoding/binary"

// The frame history: every closed frame under a fixed BYTE budget.
//
// A frame costs channels×12 bytes raw, so a history of raw frames covers
// only the last few dozen frames at a sensible memory cost — and on a
// multi-hour load campaign a congestion tree that builds over minutes
// would age out long before the deadlock or saturation trigger fires.
// The window instead stores each closed frame as per-channel COUNTER
// DELTAS against the previous frame, varint-encoded and gap-compressed
// (the same delta-encoding idiom as the search engine's frontier batches,
// internal/mcheck/frontier.go): consecutive frames of a steady network
// differ in only a handful of channels, so a frame typically encodes into
// a few dozen bytes — and a fixed byte budget retains an order of
// magnitude more cycle history than raw frames at equal memory.
//
// Every windowRestart-th frame starts a RESTART BLOCK: its first frame is
// encoded against an all-zero basis, so each block decodes independently
// (the frontier.go restart idiom). Eviction drops whole blocks from the
// front — never a partial block — so the retained history always decodes.
// Appending is allocation-free in steady state: the current block's
// buffer and the recycled block buffers stabilize at their high-water
// capacities, matching the collector's zero-alloc sampling contract.
//
// Frame encoding, uvarints throughout (zigzag for signed deltas):
//
//	index     absolute on restart frames, implicit +1 otherwise
//	start     absolute on restart frames, else delta from previous End
//	span      End - Start
//	samples, stride, flits, live
//	channels  gap-encoded sparse triples: uvarint(channel gap+1),
//	          zigzag(Δbusy), zigzag(Δocc), zigzag(Δblocked) for every
//	          channel where any delta is nonzero; gap 0 terminates.
//	          Restart frames delta against zero, i.e. absolute values.

// windowRestart is the restart-block interval in frames: the eviction
// grain and the independent-decode unit.
const windowRestart = 16

// rawFrameScalars is the accounting size of a frame's scalar fields in
// the uncompressed comparison basis (Index, Start, End, Samples, Stride,
// Live as ints, FlitsDelta as int64), on top of the three counter arrays.
const rawFrameScalars = 40

// rawFrameBytes is the uncompressed size of one frame over the given
// channel count: the unit of the raw_bytes and history_x100 accounting.
func rawFrameBytes(channels int) int { return 12*channels + rawFrameScalars }

// wblock is one sealed restart block.
type wblock struct {
	data   []byte
	frames int
	first  int // frame index of the block's first frame
	start  int // Start cycle of the block's first frame
	end    int // End cycle of the block's last frame
	raw    int64
}

// Window accumulates closed frames under a byte budget. Every Collector
// owns one (sized by Config.WindowBytes) and appends each closing frame.
type Window struct {
	budget   int
	channels int

	blocks []wblock
	free   [][]byte // recycled buffers of evicted blocks

	cur       []byte
	curFrames int
	curFirst  int
	curStart  int
	curEnd    int
	curRaw    int64

	// Delta basis: the previously appended frame.
	prevBusy, prevOcc, prevBlocked []uint32
	prevEnd                        int

	bytes   int   // encoded bytes retained (sealed blocks + current)
	frames  int   // frames retained
	dropped int   // frames evicted
	raw     int64 // raw-equivalent bytes of retained frames
}

// NewWindow returns an empty window over the given channel count with the
// given byte budget (minimum 1 KiB).
func NewWindow(channels, budget int) *Window {
	if budget < 1<<10 {
		budget = 1 << 10
	}
	return &Window{
		budget:      budget,
		channels:    channels,
		prevBusy:    make([]uint32, channels),
		prevOcc:     make([]uint32, channels),
		prevBlocked: make([]uint32, channels),
	}
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Append records one closed frame. The frame's counter slices must be
// sized to the window's channel count.
func (w *Window) Append(f *Frame) {
	restart := w.curFrames == 0
	before := len(w.cur)
	if restart {
		w.curFirst = f.Index
		w.curStart = f.Start
		clear(w.prevBusy)
		clear(w.prevOcc)
		clear(w.prevBlocked)
		w.cur = binary.AppendUvarint(w.cur, uint64(f.Index))
		w.cur = binary.AppendUvarint(w.cur, uint64(f.Start))
	} else {
		w.cur = binary.AppendUvarint(w.cur, uint64(f.Start-w.prevEnd))
	}
	w.cur = binary.AppendUvarint(w.cur, uint64(f.End-f.Start))
	w.cur = binary.AppendUvarint(w.cur, uint64(f.Samples))
	w.cur = binary.AppendUvarint(w.cur, uint64(f.Stride))
	w.cur = binary.AppendUvarint(w.cur, uint64(f.FlitsDelta))
	w.cur = binary.AppendUvarint(w.cur, uint64(f.Live))
	last := -1
	for c := 0; c < w.channels; c++ {
		db := int64(f.Busy[c]) - int64(w.prevBusy[c])
		do := int64(f.Occ[c]) - int64(w.prevOcc[c])
		dl := int64(f.Blocked[c]) - int64(w.prevBlocked[c])
		if db == 0 && do == 0 && dl == 0 {
			continue
		}
		w.cur = binary.AppendUvarint(w.cur, uint64(c-last))
		last = c
		w.cur = appendZigzag(w.cur, db)
		w.cur = appendZigzag(w.cur, do)
		w.cur = appendZigzag(w.cur, dl)
	}
	w.cur = binary.AppendUvarint(w.cur, 0)
	copy(w.prevBusy, f.Busy)
	copy(w.prevOcc, f.Occ)
	copy(w.prevBlocked, f.Blocked)
	w.prevEnd = f.End
	w.curFrames++
	w.curEnd = f.End
	fraw := int64(rawFrameBytes(w.channels))
	w.curRaw += fraw
	w.bytes += len(w.cur) - before
	w.frames++
	w.raw += fraw
	if w.curFrames >= windowRestart {
		w.seal()
	}
	w.evict()
}

// seal closes the current block, recycling an evicted buffer when one is
// available.
func (w *Window) seal() {
	var buf []byte
	if n := len(w.free); n > 0 {
		buf = w.free[n-1][:0]
		w.free = w.free[:n-1]
	}
	buf = append(buf, w.cur...)
	w.blocks = append(w.blocks, wblock{
		data: buf, frames: w.curFrames,
		first: w.curFirst, start: w.curStart, end: w.curEnd, raw: w.curRaw,
	})
	w.cur = w.cur[:0]
	w.curFrames = 0
	w.curRaw = 0
}

// evict drops whole blocks from the front until the window fits its
// budget. The current (unsealed) block is never evicted.
func (w *Window) evict() {
	for len(w.blocks) > 0 && w.bytes > w.budget {
		b := w.blocks[0]
		w.bytes -= len(b.data)
		w.frames -= b.frames
		w.dropped += b.frames
		w.raw -= b.raw
		w.free = append(w.free, b.data)
		copy(w.blocks, w.blocks[1:])
		w.blocks[len(w.blocks)-1] = wblock{}
		w.blocks = w.blocks[:len(w.blocks)-1]
	}
}

// Frames decodes the retained frames oldest-first into visit. The Frame
// pointer is reused between calls — copy what must outlive the visit.
// Decoding allocates one scratch frame; it runs on dump/report paths.
func (w *Window) Frames(visit func(*Frame)) {
	f := &Frame{
		Busy:    make([]uint32, w.channels),
		Occ:     make([]uint32, w.channels),
		Blocked: make([]uint32, w.channels),
	}
	for i := range w.blocks {
		w.decodeBlock(w.blocks[i].data, w.blocks[i].frames, f, visit)
	}
	if w.curFrames > 0 {
		w.decodeBlock(w.cur, w.curFrames, f, visit)
	}
}

func (w *Window) decodeBlock(data []byte, frames int, f *Frame, visit func(*Frame)) {
	pos := 0
	read := func() uint64 {
		v, n := binary.Uvarint(data[pos:])
		pos += n
		return v
	}
	clear(f.Busy)
	clear(f.Occ)
	clear(f.Blocked)
	for i := 0; i < frames; i++ {
		if i == 0 {
			f.Index = int(read())
			f.Start = int(read())
		} else {
			f.Index++
			f.Start = f.End + int(read())
		}
		f.End = f.Start + int(read())
		f.Samples = int(read())
		f.Stride = int(read())
		f.FlitsDelta = int64(read())
		f.Live = int(read())
		ch := -1
		for {
			gap := read()
			if gap == 0 {
				break
			}
			ch += int(gap)
			f.Busy[ch] = uint32(int64(f.Busy[ch]) + unzigzag(read()))
			f.Occ[ch] = uint32(int64(f.Occ[ch]) + unzigzag(read()))
			f.Blocked[ch] = uint32(int64(f.Blocked[ch]) + unzigzag(read()))
		}
		visit(f)
	}
}

// WindowStats is the window's accounting block for benchmarks and
// reports. All figures are logical and deterministic.
type WindowStats struct {
	Budget  int   `json:"budget_bytes"`
	Bytes   int   `json:"bytes"`
	Frames  int   `json:"frames"`
	Dropped int   `json:"dropped_frames"`
	Raw     int64 `json:"raw_bytes"`
	// SpanStart/SpanEnd bound the retained cycle history.
	SpanStart int `json:"span_start"`
	SpanEnd   int `json:"span_end"`
	// CompressionX100 is raw-equivalent bytes over encoded bytes, ×100
	// (1250 = 12.5× smaller). HistoryX100 is the cycle-history multiple
	// the window retains versus raw frames at EQUAL memory
	// (budget / raw-frame-size frames), ×100 — the acceptance figure of
	// the long-horizon design. Equal to Raw×100/Budget: both histories
	// grow at the same frames-per-cycle rate, so the byte ratio is the
	// history ratio once the window is evicting.
	CompressionX100 int64 `json:"compression_x100"`
	HistoryX100     int64 `json:"history_x100"`
}

// Stats returns the window's current accounting.
func (w *Window) Stats() WindowStats {
	s := WindowStats{
		Budget:  w.budget,
		Bytes:   w.bytes,
		Frames:  w.frames,
		Dropped: w.dropped,
		Raw:     w.raw,
	}
	if len(w.blocks) > 0 {
		s.SpanStart = w.blocks[0].start
		s.SpanEnd = w.blocks[len(w.blocks)-1].end
	} else if w.curFrames > 0 {
		s.SpanStart = w.curStart
	}
	if w.curFrames > 0 {
		s.SpanEnd = w.curEnd
	}
	if w.bytes > 0 {
		s.CompressionX100 = w.raw * 100 / int64(w.bytes)
	}
	s.HistoryX100 = w.raw * 100 / int64(w.budget)
	return s
}
