package bench

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// Span is one timed interval of a traced run, recorded by the benchmark
// around its own calls into the repository's packages.
type Span struct {
	ID     int
	Parent int // -1 for a root span
	Op     int // op index, -1 outside any op
	Name   string
	Start  time.Duration // since the recorder was created
	End    time.Duration
}

// Layer is the package a span's time is charged to: the part of its name
// before the first dot ("mcheck.level" → "mcheck"). Spans without a dot
// ("workload", "op", "check") belong to the benchmark itself.
func (s *Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return ""
}

// Spans records spans in memory. A nil *Spans records nothing, so
// untraced code paths pass nil and pay one branch per call.
type Spans struct {
	t0    time.Time
	op    int
	spans []Span
}

// NewSpans returns an empty recorder whose clock starts now.
func NewSpans() *Spans { return &Spans{t0: time.Now(), op: -1} }

// SetOp tags the spans begun from now on with op index op.
func (r *Spans) SetOp(op int) {
	if r != nil {
		r.op = op
	}
}

// Begin opens a span under parent (-1 for a root) and returns its ID.
func (r *Spans) Begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: r.op, Name: name, Start: time.Since(r.t0)})
	return id
}

// End closes span id; id -1 is ignored.
func (r *Spans) End(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0)
}

// All returns the recorded spans, indexed by ID.
func (r *Spans) All() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cur := s.Start // covered up to here
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// LayerShares splits the time of every span named root (and of nothing
// outside them) into per-layer self time, as shares of the roots' total
// duration. Self time of spans that belong to no layer — the roots
// themselves and benchmark-owned spans below them — is the "residual".
// Spans recorded on one goroutine nest without overlapping siblings, and
// then the shares sum to 1.
func LayerShares(spans []Span, root string) map[string]float64 {
	self := SelfTimes(spans)
	inRoot := make([]bool, len(spans)) // ID order is creation order, so parents come first
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for i, s := range spans {
		switch {
		case s.Name == root:
			inRoot[i] = true
			total += s.End - s.Start
		case s.Parent >= 0 && inRoot[s.Parent]:
			inRoot[i] = true
		default:
			continue
		}
		layer := s.Layer()
		if layer == "" {
			layer = "residual"
		}
		byLayer[layer] += self[i]
	}
	shares := map[string]float64{"residual": 0}
	if total <= 0 {
		shares["residual"] = 1
		return shares
	}
	for layer, d := range byLayer {
		shares[layer] = float64(d) / float64(total)
	}
	return shares
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// WriteChromeTrace writes spans as Chrome trace events (chrome://tracing,
// Perfetto). Each event carries its span ID, parent ID and op index.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		cat := s.Layer()
		if cat == "" {
			cat = "bench"
		}
		evs[i] = chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
