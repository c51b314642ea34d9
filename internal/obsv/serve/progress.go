package serve

import (
	"encoding/json"
	"sync"
)

// Snapshot is one live progress report published to the /progress
// endpoint. It is a union over the repository's long-running producers:
// exhaustive searches fill the Level/Frontier/States block, fault
// campaigns the Cycle/Delivered block. Unlike obsv trace events a
// snapshot carries wall-clock quantities (rates, elapsed time) — it is
// interactive telemetry, never a deterministic artifact.
type Snapshot struct {
	// Seq is a per-hub monotonically increasing sequence number, assigned
	// by Publish.
	Seq int64 `json:"seq"`
	// Source labels the producer: "search", "campaign", "run".
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

	// Campaign telemetry (Source == "campaign").
	Cycle         int `json:"cycle,omitempty"`
	Messages      int `json:"messages,omitempty"`
	Delivered     int `json:"delivered,omitempty"`
	Dropped       int `json:"dropped,omitempty"`
	Faults        int `json:"faults,omitempty"`
	Interventions int `json:"interventions,omitempty"`

	ElapsedMS int64 `json:"elapsed_ms"`
	// Done marks the producer's final snapshot; Verdict carries the
	// outcome when one exists (search verdict, sim result).
	Done    bool   `json:"done,omitempty"`
	Verdict string `json:"verdict,omitempty"`
}

// Hub fans progress snapshots out to any number of /progress subscribers
// and retains the most recent one for plain GET polling. Publishing never
// blocks: a subscriber that cannot keep up has events dropped (each event
// is a full snapshot, so a dropped one is superseded by the next).
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

// Publish assigns the snapshot its sequence number, stores it as the
// latest, and broadcasts it to every subscriber.
func (h *Hub) Publish(s Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	s.Seq = h.seq
	buf, err := json.Marshal(s)
	if err != nil {
		return // a Snapshot always marshals; defensive only
	}
	h.last = buf
	for ch := range h.subs {
		select {
		case ch <- buf:
		default: // slow subscriber: drop, the next snapshot supersedes
		}
	}
}

// Latest returns the most recently published snapshot as JSON, or nil
// when nothing was published yet.
func (h *Hub) Latest() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// Subscribe registers a new subscriber. The returned channel receives
// every subsequently published snapshot (pre-seeded with the latest one,
// if any); cancel unregisters it. The channel is buffered — a subscriber
// must drain it or lose intermediate snapshots, never block publishers.
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
