// The flight recorder: a fixed-capacity ring of recent obsv events plus
// the collector's frame window, dumped as a post-mortem bundle only when
// something goes wrong (deadlock, timeout, saturation). The
// analogy is deliberate — it records continuously at bounded cost and is
// read only after the crash.
package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/obsv"
	"repro/internal/topology"
)

// FlightRecorder is an obsv.Tracer that retains the last N events in a
// ring buffer and tracks the current wait-for graph incrementally, so a
// dump can render the final graph without replaying the trace. Attach it
// to a simulator (typically fanned out with obsv.Multi next to other
// sinks) alongside a Collector on the same run; Dump then writes the
// bundle (format 2, self-contained for `telemetry replay`):
//
//	flight.jsonl  header, channel endpoints, wait-for graph state,
//	              retained telemetry frames, retained events
//	waitfor.dot   the final wait-for graph, closed cycles in red
//	heatmap.svg   per-channel congestion (busy+blocked), hottest outlined
//
// Recording is allocation-free after the wait-edge arrays reach the
// run's message count; a dump allocates freely (it runs once, after the
// verdict).
type FlightRecorder struct {
	net       *topology.Network
	collector *Collector

	events []obsv.Event // ring: events[i%cap] holds event i
	seen   int          // events observed

	graph     obsv.WaitGraph
	lastCycle int
	verdict   string // deadlock certificate or outcome note
	slo       []byte // optional SLO report JSON, one bundle line when set
}

// DefaultEventCap is the event-ring capacity NewFlightRecorder uses when
// given a non-positive capacity.
const DefaultEventCap = 4096

// BundleFormat is the flight.jsonl header format version. Version 2
// added span fields, the channel-endpoint and wait-graph lines (which
// make a bundle replayable offline), per-frame strides, and the
// long-horizon window accounting.
const BundleFormat = 2

// NewFlightRecorder returns a recorder over net retaining the last cap
// events (DefaultEventCap when cap <= 0). The collector supplies the
// telemetry frames and congestion totals for the dump; it may be nil,
// which drops the frame and heatmap artifacts from the bundle.
func NewFlightRecorder(net *topology.Network, cap int, c *Collector) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultEventCap
	}
	return &FlightRecorder{
		net:       net,
		collector: c,
		events:    make([]obsv.Event, cap),
	}
}

// Collector returns the telemetry collector feeding the recorder's
// frames, nil when none was attached.
func (r *FlightRecorder) Collector() *Collector { return r.collector }

// SetSLO attaches a pre-rendered SLO report (a single JSON object) to
// the bundle; it is written as its own flight.jsonl line so replay can
// carry the objectives into its timeline without the sketches.
func (r *FlightRecorder) SetSLO(report []byte) { r.slo = report }

// Event implements obsv.Tracer.
func (r *FlightRecorder) Event(e obsv.Event) {
	r.events[r.seen%len(r.events)] = e
	r.seen++
	if e.Cycle > r.lastCycle {
		r.lastCycle = e.Cycle
	}
	r.graph.Apply(e)
	switch e.Kind {
	case obsv.KindDeadlock:
		r.verdict = "deadlock"
	case obsv.KindOutcome:
		if r.verdict == "" {
			r.verdict = e.Note
		}
	}
}

// Retained returns how many events the ring currently holds.
func (r *FlightRecorder) Retained() int { return min(r.seen, len(r.events)) }

// Verdict returns the most recent failure verdict the event stream
// carried ("" when the run looked healthy).
func (r *FlightRecorder) Verdict() string { return r.verdict }

// Graph returns the recorder's live wait-for graph.
func (r *FlightRecorder) Graph() *obsv.WaitGraph { return &r.graph }

// CycleChannels returns the channel set of closed wait-for cycles.
func (r *FlightRecorder) CycleChannels() []topology.ChannelID {
	return r.graph.CycleChannels()
}

// spanEnd returns the true end of the recorded history: the last event
// cycle or the last telemetry sample cycle, whichever is later. A dump
// that fires mid-frame still reports the cycles the partial frame
// covered.
func (r *FlightRecorder) spanEnd() int {
	end := r.lastCycle
	if r.collector != nil {
		if s := r.collector.LastSampleCycle(); s > end {
			end = s
		}
	}
	return end
}

// Dump writes the flight bundle into dir (created if needed). reason
// labels why the dump fired ("deadlock", "saturated", ...); when empty
// the recorder's own verdict is used.
func (r *FlightRecorder) Dump(dir, reason string) error {
	if reason == "" {
		reason = r.verdict
	}
	if reason == "" {
		reason = "requested"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if r.collector != nil {
		r.collector.Flush()
	}
	if err := os.WriteFile(filepath.Join(dir, "flight.jsonl"), r.renderJSONL(reason), 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	dot := r.graph.AppendDOT(nil, fmt.Sprintf("flight wait-for @%d [%s]", r.lastCycle, reason))
	if err := os.WriteFile(filepath.Join(dir, "waitfor.dot"), dot, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if r.collector != nil {
		if err := os.WriteFile(filepath.Join(dir, "heatmap.svg"), r.renderHeatmap(reason), 0o644); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	return nil
}

// renderJSONL builds flight.jsonl: one header object, one channel-
// endpoint line, one wait-graph line, then the retained telemetry frames
// oldest-first and the retained events oldest-first. Every line is
// deterministic for a deterministic run.
func (r *FlightRecorder) renderJSONL(reason string) []byte {
	var b []byte
	var win WindowStats
	if r.collector != nil {
		win = r.collector.Window().Stats()
	}
	b = append(b, `{"flight_recorder":true,"format":`...)
	b = strconv.AppendInt(b, BundleFormat, 10)
	b = append(b, `,"reason":`...)
	b = appendQuoted(b, reason)
	b = append(b, `,"cycle":`...)
	b = strconv.AppendInt(b, int64(r.lastCycle), 10)
	b = append(b, `,"span_start":`...)
	b = strconv.AppendInt(b, int64(win.SpanStart), 10)
	b = append(b, `,"span_end":`...)
	b = strconv.AppendInt(b, int64(r.spanEnd()), 10)
	b = append(b, `,"events_seen":`...)
	b = strconv.AppendInt(b, int64(r.seen), 10)
	b = append(b, `,"events_retained":`...)
	b = strconv.AppendInt(b, int64(r.Retained()), 10)
	b = append(b, `,"frames_retained":`...)
	b = strconv.AppendInt(b, int64(win.Frames), 10)
	if r.collector != nil {
		b = append(b, `,"window":`...)
		b = win.AppendJSON(b)
	}
	b = append(b, '}', '\n')

	// Channel endpoints: what replay needs to label heatmap rows.
	b = append(b, `{"channels":[`...)
	for ch := 0; ch < r.net.NumChannels(); ch++ {
		if ch > 0 {
			b = append(b, ',')
		}
		c := r.net.Channel(topology.ChannelID(ch))
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(c.Src), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c.Dst), 10)
		b = append(b, ']')
	}
	b = append(b, `]}`...)
	b = append(b, '\n')

	b = appendWaitGraph(b, &r.graph)
	b = append(b, '\n')

	if r.slo != nil {
		b = append(b, `{"slo":`...)
		b = append(b, r.slo...)
		b = append(b, '}', '\n')
	}

	if r.collector != nil {
		r.collector.Window().Frames(func(f *Frame) {
			b = f.AppendJSON(b)
			b = append(b, '\n')
		})
	}
	first := r.seen - r.Retained()
	for i := first; i < r.seen; i++ {
		b = r.events[i%len(r.events)].AppendJSON(b)
		b = append(b, '\n')
	}
	return b
}

// appendWaitGraph appends g's full state as one deterministic JSON
// object — the bundle line that lets replay rebuild the wait-for graph
// without the event stream.
func appendWaitGraph(b []byte, g *obsv.WaitGraph) []byte {
	b = append(b, `{"waitgraph":true,"seen":[`...)
	for id := 0; id < g.Len(); id++ {
		if g.Seen(id) {
			b = comma(b)
			b = strconv.AppendInt(b, int64(id), 10)
		}
	}
	b = append(b, `],"edges":[`...)
	for id := 0; id < g.Len(); id++ {
		if ch, owner, ok := g.WaitsFor(id); ok {
			b = comma(b)
			b = appendInts(b, id, int(ch), owner)
		}
	}
	b = append(b, `],"held":[`...)
	for ch := 0; ch < g.NumChannels(); ch++ {
		if holder := g.Holder(topology.ChannelID(ch)); holder >= 0 {
			b = comma(b)
			b = appendInts(b, ch, holder)
		}
	}
	return append(b, `]}`...)
}

// comma appends the separator before every JSON list element but the
// first, which follows the list's opening bracket.
func comma(b []byte) []byte {
	if b[len(b)-1] != '[' {
		b = append(b, ',')
	}
	return b
}

// appendInts appends vs as a JSON array.
func appendInts(b []byte, vs ...int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// AppendJSON appends the window accounting as one deterministic JSON
// object (the bundle header's "window" value).
func (s WindowStats) AppendJSON(b []byte) []byte {
	b = append(b, `{"budget_bytes":`...)
	b = strconv.AppendInt(b, int64(s.Budget), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, int64(s.Bytes), 10)
	b = append(b, `,"frames":`...)
	b = strconv.AppendInt(b, int64(s.Frames), 10)
	b = append(b, `,"dropped_frames":`...)
	b = strconv.AppendInt(b, int64(s.Dropped), 10)
	b = append(b, `,"raw_bytes":`...)
	b = strconv.AppendInt(b, s.Raw, 10)
	b = append(b, `,"span_start":`...)
	b = strconv.AppendInt(b, int64(s.SpanStart), 10)
	b = append(b, `,"span_end":`...)
	b = strconv.AppendInt(b, int64(s.SpanEnd), 10)
	b = append(b, `,"compression_x100":`...)
	b = strconv.AppendInt(b, s.CompressionX100, 10)
	b = append(b, `,"history_x100":`...)
	b = strconv.AppendInt(b, s.HistoryX100, 10)
	b = append(b, '}')
	return b
}

// renderHeatmap collects run-total heat from the collector and renders
// the shared heatmap.
func (r *FlightRecorder) renderHeatmap(reason string) []byte {
	c := r.collector
	heat := make([]uint64, c.channels)
	for ch := range heat {
		heat[ch] = c.Heat(ch)
	}
	ends := func(ch int) (int, int) {
		cc := r.net.Channel(topology.ChannelID(ch))
		return int(cc.Src), int(cc.Dst)
	}
	return RenderHeatmap(reason, r.lastCycle, heat, ends, r.graph.CycleChannels())
}

// appendQuoted appends s as a JSON string (telemetry strings are plain
// ASCII identifiers; quotes and backslashes escaped for safety).
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
