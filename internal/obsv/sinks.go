package obsv

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/topology"
)

// appendJSON appends the event as a single JSON object with a fixed key
// order (k, cycle, msg, ch, owner, n, m, note), omitting inactive fields.
// Hand-rolled so the bytes are deterministic: no map iteration, no
// reflection, no float formatting.
func (e Event) appendJSON(b []byte) []byte {
	b = append(b, `{"k":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","cycle":`...)
	b = strconv.AppendInt(b, int64(e.Cycle), 10)
	if e.Msg >= 0 {
		b = append(b, `,"msg":`...)
		b = strconv.AppendInt(b, int64(e.Msg), 10)
	}
	if e.Ch != topology.None {
		b = append(b, `,"ch":`...)
		b = strconv.AppendInt(b, int64(e.Ch), 10)
	}
	if e.Owner >= 0 {
		b = append(b, `,"owner":`...)
		b = strconv.AppendInt(b, int64(e.Owner), 10)
	}
	if e.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(e.N), 10)
	}
	if e.M != 0 {
		b = append(b, `,"m":`...)
		b = strconv.AppendInt(b, int64(e.M), 10)
	}
	if e.Note != "" {
		b = append(b, `,"note":`...)
		b = strconv.AppendQuote(b, e.Note)
	}
	b = append(b, '}')
	return b
}

// JSONLSink writes one JSON object per event, newline-separated. The
// output is byte-deterministic for a deterministic event sequence, so a
// JSONL trace of a fixed scenario is a diffable regression artifact.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
}

// NewJSONL returns a JSONL sink writing to w. Call Close to flush.
func NewJSONL(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Event implements Tracer.
func (s *JSONLSink) Event(e Event) {
	s.buf = e.appendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
}

// Close flushes buffered output.
func (s *JSONLSink) Close() error { return s.w.Flush() }

// DOTSink renders the evolving wait-for graph as a sequence of Graphviz
// digraphs, one snapshot per cycle in which the graph changed (the same
// conventions as cdgtool's CDG output: red bold marks cycle members). The
// resulting stream makes Theorem 1's unreachability argument visible: on
// a false-resource-cycle network the CDG has a cycle, but no snapshot in
// the trace ever shows a closed wait-for cycle.
type DOTSink struct {
	w     *bufio.Writer
	name  string
	graph WaitGraph
	buf   []byte
	last  int // cycle of the pending snapshot
	dirty bool
	note  string // extra snapshot annotation (e.g. "deadlock")
}

// NewDOT returns a DOT sink writing snapshots named after name.
func NewDOT(w io.Writer, name string) *DOTSink {
	return &DOTSink{w: bufio.NewWriter(w), name: name}
}

// Event implements Tracer.
func (s *DOTSink) Event(e Event) {
	if e.Cycle != s.last && s.dirty {
		s.flush()
	}
	s.last = e.Cycle
	s.graph.Apply(e)
	switch e.Kind {
	case KindWaitEdgeAdd, KindWaitEdgeDel:
		s.dirty = true
	case KindDeadlock:
		s.note = "deadlock"
		s.dirty = true
	case KindOutcome:
		s.note = e.Note
		s.dirty = true
	}
}

// flush writes the pending snapshot as one digraph.
func (s *DOTSink) flush() {
	title := s.name + " wait-for @" + strconv.Itoa(s.last)
	if s.note != "" {
		title += " [" + s.note + "]"
		s.note = ""
	}
	s.buf = s.graph.AppendDOT(s.buf[:0], title)
	s.w.Write(s.buf)
	s.dirty = false
}

// Close flushes the final snapshot and buffered output.
func (s *DOTSink) Close() error {
	if s.dirty {
		s.flush()
	}
	return s.w.Flush()
}

// ChromeTraceSink emits Chrome trace_event JSON (the JSON-array format),
// loadable in Perfetto or chrome://tracing: one lane (thread) per channel,
// with a duration span for every channel occupancy (acquire to release,
// named after the owning message) and instant markers for deadlock and
// the run's outcome. Timestamps are simulation cycles interpreted as microseconds.
type ChromeTraceSink struct {
	w     *bufio.Writer
	first bool
}

// NewChromeTrace returns a Chrome-trace sink. lanes names the channel
// lanes in channel-ID order (one thread-name metadata record each); pass
// nil to fall back to bare channel IDs in the UI.
func NewChromeTrace(w io.Writer, lanes []string) *ChromeTraceSink {
	s := &ChromeTraceSink{w: bufio.NewWriter(w), first: true}
	s.w.WriteString("[\n")
	s.entry(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"wormhole network"}}`)
	for i, name := range lanes {
		s.entry(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, i, name))
	}
	return s
}

// entry writes one record with array-comma bookkeeping.
func (s *ChromeTraceSink) entry(rec string) {
	if !s.first {
		s.w.WriteString(",\n")
	}
	s.first = false
	s.w.WriteString(rec)
}

// Event implements Tracer.
func (s *ChromeTraceSink) Event(e Event) {
	switch e.Kind {
	case KindAcquire:
		s.entry(fmt.Sprintf(`{"name":"m%d","ph":"B","ts":%d,"pid":1,"tid":%d}`, e.Msg, e.Cycle, e.Ch))
	case KindRelease:
		// The end timestamp is the releasing cycle itself: under same-cycle
		// handoff the successor's acquire lands on the same ts, and the
		// lane must stay properly nested.
		s.entry(fmt.Sprintf(`{"name":"m%d","ph":"E","ts":%d,"pid":1,"tid":%d}`, e.Msg, e.Cycle, e.Ch))
	case KindDeadlock:
		s.entry(fmt.Sprintf(`{"name":"deadlock","ph":"i","s":"g","ts":%d,"pid":1,"tid":0}`, e.Cycle))
	case KindOutcome:
		s.entry(fmt.Sprintf(`{"name":"outcome:%s","ph":"i","s":"g","ts":%d,"pid":1,"tid":0}`, e.Note, e.Cycle))
	}
}

// Close terminates the JSON array and flushes.
func (s *ChromeTraceSink) Close() error {
	s.w.WriteString("\n]\n")
	return s.w.Flush()
}
