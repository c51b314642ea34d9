package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Snapshot is one live progress report published to the /progress
// endpoint. It is a union over the repository's long-running producers:
// exhaustive searches fill the Level/Frontier/States block, simulation
// runs the Cycle/Delivered block. Unlike obsv trace events a
// snapshot carries wall-clock quantities (rates, elapsed time) — it is
// interactive telemetry, never a deterministic artifact.
type Snapshot struct {
	// Seq is a per-hub monotonically increasing sequence number, assigned
	// by PublishSnapshot.
	Seq int64 `json:"seq"`
	// Source labels the producer: "search", "campaign", "loadtest".
	Source string `json:"source"`
	// Name identifies the workload: scenario, experiment or sweep cell.
	Name string `json:"name,omitempty"`

	// Search telemetry (Source == "search").
	Level        int   `json:"level,omitempty"`
	Frontier     int   `json:"frontier,omitempty"`
	States       int   `json:"states,omitempty"`
	StatesPerSec int64 `json:"states_per_sec,omitempty"`
	// Visited-set memory accounting (exhaustive searches; zero elsewhere).
	VisitedEntries int   `json:"visited_entries,omitempty"`
	VisitedBytes   int64 `json:"visited_bytes,omitempty"`
	SpillBytes     int64 `json:"spill_bytes,omitempty"`

	// Simulation-run telemetry (Source == "campaign" or "loadtest").
	Cycle     int `json:"cycle,omitempty"`
	Messages  int `json:"messages,omitempty"`
	Delivered int `json:"delivered,omitempty"`

	ElapsedMS int64 `json:"elapsed_ms"`
	// Done marks the producer's final snapshot; Verdict carries the
	// outcome when one exists (search verdict, sim result).
	Done    bool   `json:"done,omitempty"`
	Verdict string `json:"verdict,omitempty"`
}

// Hub fans JSON payloads out to any number of subscribers and retains
// the most recent one for plain GET polling; it is the http.Handler behind
// /progress, /telemetry and /telemetry/slo. Publishing never blocks: a
// subscriber that cannot keep up has payloads dropped (each payload is a
// full snapshot, so a dropped one is superseded by the next).
type Hub struct {
	mu   sync.Mutex
	seq  int64
	last []byte
	subs map[chan []byte]struct{}
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan []byte]struct{})}
}

// Publish stores a copy of the pre-serialized payload buf as the latest
// and broadcasts it, so producers that own a deterministic encoding (the
// telemetry collector, SLO reports) may reuse their buffers.
func (h *Hub) Publish(buf []byte) {
	cp := append([]byte(nil), buf...)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.broadcast(cp)
}

// PublishSnapshot assigns the snapshot the hub's next sequence number,
// marshals it, stores it as the latest and broadcasts it.
func (h *Hub) PublishSnapshot(s Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	s.Seq = h.seq
	buf, err := json.Marshal(s)
	if err != nil {
		return // a Snapshot always marshals; defensive only
	}
	h.broadcast(buf)
}

// broadcast stores buf as the latest payload and offers it to every
// subscriber. The caller holds h.mu.
func (h *Hub) broadcast(buf []byte) {
	h.last = buf
	for ch := range h.subs {
		select {
		case ch <- buf:
		default: // slow subscriber: drop, the next payload supersedes
		}
	}
}

// Latest returns the most recently published payload, or nil when
// nothing was published yet.
func (h *Hub) Latest() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// Subscribe registers a new subscriber. The returned channel receives
// every subsequently published payload (pre-seeded with the latest one,
// if any); cancel unregisters it. The channel is buffered — a subscriber
// must drain it or lose intermediate payloads, never block publishers.
func (h *Hub) Subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, 16)
	h.mu.Lock()
	if h.last != nil {
		ch <- h.last
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	cancel := func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
	return ch, cancel
}

// ServeHTTP serves the latest payload as JSON, or an SSE stream of
// payloads when the client asks for one (?stream=sse or Accept:
// text/event-stream).
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	stream := r.URL.Query().Get("stream") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if !stream {
		w.Header().Set("Content-Type", "application/json")
		if last := h.Latest(); last != nil {
			w.Write(last)
			w.Write([]byte("\n"))
			return
		}
		w.Write([]byte("{}\n"))
		return
	}

	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fl.Flush()

	events, cancel := h.Subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case buf := <-events:
			if _, err := fmt.Fprintf(w, "data: %s\n\n", buf); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
