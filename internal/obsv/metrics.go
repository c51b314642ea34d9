package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/topology"
)

// Registry is a metrics registry: named counters, gauges and histograms
// with a Prometheus text-format exporter and a deterministic JSON snapshot
// exporter. Series are created on first use and are safe for concurrent
// update; exports are sorted by name so two snapshots of identical state
// are byte-identical. A histogram is a Sketch of integer samples, updated
// under the registry lock and exported on the fixed promLadder.
//
// Series names may carry labels in canonical Prometheus form, e.g.
// `sim_channel_occupancy_cycles{channel="3"}` (see Label); the exporter
// groups label variants under one TYPE header per base name.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Sketch
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Sketch),
	}
}

// Label renders one key="value" label pair onto a metric name.
func Label(name, key string, value any) string {
	return fmt.Sprintf("%s{%s=%q}", name, key, fmt.Sprint(value))
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that may go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Max raises the value to n if n is larger.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Counter returns the named counter, creating it if needed. Counter base
// names must carry the Prometheus `_total` suffix; violating that (or
// reusing a series name already registered with another type) is a
// programming error and panics, so a lint-breaking family can never reach
// an exposition.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		if !strings.HasSuffix(baseName(name), "_total") {
			panic(fmt.Sprintf("obsv: counter %q must have a _total-suffixed base name", name))
		}
		r.checkUnregistered(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		r.checkUnregistered(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeValue returns the named gauge's value and whether it exists. It
// never creates the gauge, so a live reader leaves every snapshot's
// families exactly as the producers made them.
func (r *Registry) GaugeValue(name string) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		return 0, false
	}
	return g.Value(), true
}

// Observe records one integer sample (a cycle count or a size) into the
// named histogram, creating it if needed.
func (r *Registry) Observe(name string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		r.checkUnregistered(name, "histogram")
		h = NewSketch()
		r.histograms[name] = h
	}
	h.Add(v)
}

// promLadder is the cumulative bucket ladder every histogram exports.
// Its bounds lie in the Sketch's exact range, so each count is exact.
var promLadder = [...]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// ladderCounts returns, for each promLadder bound, the number of samples
// at or below it, summed from the sketch's exact buckets.
func ladderCounts(h *Sketch) (cum [len(promLadder)]int64) {
	var n int64
	v := 0
	for i, le := range promLadder {
		for ; v <= le && v < len(h.linear); v++ {
			n += int64(h.linear[v])
		}
		cum[i] = n
	}
	return cum
}

// checkUnregistered panics if the series name is already registered under a
// different metric type — that would split one family across two TYPE
// declarations, which the Prometheus exposition format forbids. Caller
// holds r.mu.
func (r *Registry) checkUnregistered(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obsv: series %q already registered as a counter, cannot re-register as a %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obsv: series %q already registered as a gauge, cannot re-register as a %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obsv: series %q already registered as a histogram, cannot re-register as a %s", name, kind))
	}
}

// baseName strips a label suffix: `foo{bar="1"}` -> `foo`.
func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// builtinHelp documents every metric family the repository's producers
// emit, keyed by base name. Families not listed here get a generated
// placeholder, so the exposition always carries a HELP line per family.
var builtinHelp = map[string]string{
	"sim_messages_injected_total":   "Messages whose header flit entered the network.",
	"sim_flits_moved_total":         "Individual flit advances, including body-flit injection.",
	"sim_flits_delivered_total":     "Flits consumed at their destination.",
	"sim_messages_delivered_total":  "Messages whose tail flit was consumed.",
	"sim_message_latency_cycles":    "Injection-to-delivery latency per delivered message, in cycles.",
	"sim_channel_acquires_total":    "Channel acquisitions by message headers.",
	"sim_channel_occupancy_cycles":  "Cycles a channel was held between acquire and release.",
	"sim_blocks_total":              "Transitions of a message into the blocked state.",
	"sim_cycles_blocked_total":      "Total message-cycles spent blocked on a held channel.",
	"sim_blocked_duration_cycles":   "Duration of individual blocked episodes, in cycles.",
	"sim_freeze_expiries_total":     "Section 6 freeze counters that expired.",
	"sim_deadlocks_detected_total":  "Exact Definition 6 deadlock certificates detected.",
	"mcheck_search_level":           "BFS level (network cycle depth) the search is merging.",
	"mcheck_frontier_size":          "States in the BFS level currently being expanded.",
	"mcheck_frontier_peak":          "Largest BFS frontier seen so far.",
	"mcheck_states":                 "Distinct states accepted by the search so far.",
	"mcheck_peak_visited":           "Entries retained by the visited set at search end.",
	"mcheck_workers":                "Worker goroutines the search ran with.",
	"mcheck_visited_bytes":          "Resident bytes of the visited-set backend (excludes spilled runs).",
	"mcheck_visited_spill_bytes":    "Bytes in the spill backend's on-disk run files at search end.",
	"mcheck_visited_spill_runs":     "Live run files of the spill backend at search end.",
	"mcheck_states_pruned":          "Successor candidates discarded by state-space reductions.",
	"mcheck_sleep_set_hits":         "Expanded states with a non-empty sleep set.",
	"mcheck_symmetry_group":         "Order of the symmetry group the canonical encoding quotients by.",
	"loadtest_points_done_total":    "Rate points of the load sweep that finished.",
	"loadtest_slo_violations_total": "SLO rows violated across the finished rate points.",
	"cdg_dependencies":              "Edges of the channel dependency graph.",
	"cdg_cycles_found":              "Simple cycles enumerated in the channel dependency graph.",
	"cdg_sccs":                      "Nontrivial strongly connected components of the CDG.",
	"cdg_acyclic":                   "1 when the channel dependency graph is acyclic, else 0.",
}

// helpFor resolves the HELP text for a family.
func helpFor(base, kind string) string {
	if h, ok := builtinHelp[base]; ok {
		return h
	}
	return strings.ReplaceAll(base, "_", " ") + " (" + kind + ")."
}

// promFamily is one metric family of an exposition: every series sharing a
// base name, all of one type.
type promFamily struct {
	kind   string
	series []string
}

// WritePrometheus writes every series in Prometheus text exposition
// format. Series are grouped into families by base name — a family is
// never split or interleaved, and each gets exactly one HELP and one TYPE
// line — families sorted by base name, label variants sorted within a
// family, so the output passes `promtool check metrics`-style lint rules
// and identical registry states export byte-identically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make(map[string]*promFamily)
	addFamily := func(n, kind string) {
		base := baseName(n)
		f, ok := fams[base]
		if !ok {
			f = &promFamily{kind: kind}
			fams[base] = f
		}
		f.series = append(f.series, n)
	}
	for n := range r.counters {
		addFamily(n, "counter")
	}
	for n := range r.gauges {
		addFamily(n, "gauge")
	}
	for n := range r.histograms {
		addFamily(n, "histogram")
	}
	bases := sortedKeys(fams)
	for _, base := range bases {
		f := fams[base]
		sort.Strings(f.series)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			base, helpFor(base, f.kind), base, f.kind); err != nil {
			return err
		}
		for _, n := range f.series {
			switch f.kind {
			case "counter":
				fmt.Fprintf(w, "%s %d\n", n, r.counters[n].Value())
			case "gauge":
				fmt.Fprintf(w, "%s %d\n", n, r.gauges[n].Value())
			case "histogram":
				h := r.histograms[n]
				for i, cum := range ladderCounts(h) {
					fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, promLadder[i], cum)
				}
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count())
				fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum())
				fmt.Fprintf(w, "%s_count %d\n", n, h.Count())
			}
		}
	}
	return nil
}

// WriteJSON writes a deterministic JSON snapshot: one object with
// "counters", "gauges" and "histograms" sections, series sorted by name.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	b.WriteString("{\n  \"counters\": {")
	writeScalarSection(&b, sortedKeys(r.counters), func(n string) string {
		return strconv.FormatInt(r.counters[n].Value(), 10)
	})
	b.WriteString("},\n  \"gauges\": {")
	writeScalarSection(&b, sortedKeys(r.gauges), func(n string) string {
		return strconv.FormatInt(r.gauges[n].Value(), 10)
	})
	b.WriteString("},\n  \"histograms\": {")
	names := sortedKeys(r.histograms)
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		h := r.histograms[n]
		fmt.Fprintf(&b, "\n    %s: {\"count\": %d, \"sum\": %d, \"buckets\": {", strconv.Quote(n), h.Count(), h.Sum())
		for j, cum := range ladderCounts(h) {
			fmt.Fprintf(&b, "\"%d\": %d, ", promLadder[j], cum)
		}
		fmt.Fprintf(&b, "\"+Inf\": %d}}", h.Count())
	}
	if len(names) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("}\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeScalarSection(b *strings.Builder, names []string, value func(string) string) {
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "\n    %s: %s", strconv.Quote(n), value(n))
	}
	if len(names) > 0 {
		b.WriteString("\n  ")
	}
}

// MetricsSink is a Tracer that folds the event stream into a Registry:
// flits delivered, channel acquisitions, per-channel occupancy histograms,
// block/unblock counts with blocked-duration histograms, freeze expiries
// and deadlock certificates. Attach it (alone, or in a Multi alongside a
// trace sink) and export the registry at the end of the run. Search
// events pass through: the search engines write their mcheck_* gauges
// into the registry themselves (mcheck.SearchOptions.Metrics).
type MetricsSink struct {
	R *Registry

	acquiredAt map[topology.ChannelID]int
	blockedAt  map[int]int
}

// NewMetricsSink returns a sink recording into r.
func NewMetricsSink(r *Registry) *MetricsSink {
	return &MetricsSink{
		R:          r,
		acquiredAt: make(map[topology.ChannelID]int),
		blockedAt:  make(map[int]int),
	}
}

// Event implements Tracer.
func (m *MetricsSink) Event(e Event) {
	switch e.Kind {
	case KindInject:
		m.R.Counter("sim_messages_injected_total").Inc()
	case KindFlit:
		m.R.Counter("sim_flits_moved_total").Inc()
	case KindConsume:
		m.R.Counter("sim_flits_delivered_total").Inc()
	case KindDeliver:
		m.R.Counter("sim_messages_delivered_total").Inc()
		m.R.Observe("sim_message_latency_cycles", e.N)
	case KindAcquire:
		m.R.Counter("sim_channel_acquires_total").Inc()
		m.acquiredAt[e.Ch] = e.Cycle
	case KindRelease:
		if at, ok := m.acquiredAt[e.Ch]; ok {
			delete(m.acquiredAt, e.Ch)
			m.R.Observe("sim_channel_occupancy_cycles", e.Cycle-at+1)
		}
	case KindBlock:
		m.R.Counter("sim_blocks_total").Inc()
		m.blockedAt[e.Msg] = e.Cycle
	case KindUnblock:
		if at, ok := m.blockedAt[e.Msg]; ok {
			delete(m.blockedAt, e.Msg)
			blocked := e.Cycle - at
			m.R.Counter("sim_cycles_blocked_total").Add(int64(blocked))
			m.R.Observe("sim_blocked_duration_cycles", blocked)
		}
	case KindThaw:
		m.R.Counter("sim_freeze_expiries_total").Inc()
	case KindDeadlock:
		m.R.Counter("sim_deadlocks_detected_total").Inc()
	}
}
