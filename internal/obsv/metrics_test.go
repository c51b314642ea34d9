package obsv

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	c.Inc()
	c.Add(4)
	if r.Counter("hits_total") != c {
		t.Error("Counter should return the same series on re-lookup")
	}
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	g.Max(3) // below current: no-op
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	g.Max(11)
	if g.Value() != 11 {
		t.Errorf("gauge after Max = %d, want 11", g.Value())
	}

	for _, v := range []int{0, 1, 5, 100} {
		r.Observe("lat", v)
	}
	if h := r.histograms["lat"]; h.Count() != 4 || h.Sum() != 106 {
		t.Errorf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestLabel(t *testing.T) {
	if got := Label("held_total", "channel", 3); got != `held_total{channel="3"}` {
		t.Errorf("Label = %s", got)
	}
	if got := baseName(`held_total{channel="3"}`); got != "held_total" {
		t.Errorf("baseName = %s", got)
	}
	if got := baseName("plain"); got != "plain" {
		t.Errorf("baseName = %s", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter(Label("a_by_kind_total", "kind", "fail")).Inc()
	r.Counter(Label("a_by_kind_total", "kind", "stall")).Add(3)
	r.Gauge("level").Set(9)
	// 20000 lies past the ladder's last bound (and in the sketch's exact
	// range); only +Inf counts it.
	for _, v := range []int{0, 5, 50, 20000} {
		r.Observe("lat", v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_by_kind_total a by kind total (counter).
# TYPE a_by_kind_total counter
a_by_kind_total{kind="fail"} 1
a_by_kind_total{kind="stall"} 3
# HELP b_total b total (counter).
# TYPE b_total counter
b_total 2
# HELP lat lat (histogram).
# TYPE lat histogram
lat_bucket{le="1"} 1
lat_bucket{le="2"} 1
lat_bucket{le="4"} 1
lat_bucket{le="8"} 2
lat_bucket{le="16"} 2
lat_bucket{le="32"} 2
lat_bucket{le="64"} 3
lat_bucket{le="128"} 3
lat_bucket{le="256"} 3
lat_bucket{le="512"} 3
lat_bucket{le="1024"} 3
lat_bucket{le="4096"} 3
lat_bucket{le="16384"} 3
lat_bucket{le="+Inf"} 4
lat_sum 20055
lat_count 4
# HELP level level (gauge).
# TYPE level gauge
level 9
`
	if sb.String() != want {
		t.Errorf("Prometheus output:\n%s\nwant:\n%s", sb.String(), want)
	}

	// One HELP and one TYPE header per base name even with multiple label
	// variants.
	if strings.Count(sb.String(), "# TYPE a_by_kind_total") != 1 {
		t.Error("duplicate TYPE header for labeled series")
	}
	if strings.Count(sb.String(), "# HELP a_by_kind_total") != 1 {
		t.Error("duplicate HELP header for labeled series")
	}
}

// TestWritePrometheusLint is the golden exposition-format test for the
// promtool-style lint rules: every family carries HELP then TYPE, families
// are never interleaved (a plain series, a sibling family sorting between
// it and its label variants, and the label variants all stay grouped), and
// known families resolve their curated help text.
func TestWritePrometheusLint(t *testing.T) {
	r := NewRegistry()
	// "foo_sub_total" sorts between "foo_total" and `foo_total{...}` as raw
	// strings ('_' < '{'): grouping by base name must keep the foo_total
	// family contiguous anyway.
	r.Counter("foo_total").Inc()
	r.Counter(Label("foo_total", "kind", "x")).Add(2)
	r.Counter("foo_sub_total").Add(7)
	r.Counter("sim_messages_injected_total").Add(4)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP foo_sub_total foo sub total (counter).
# TYPE foo_sub_total counter
foo_sub_total 7
# HELP foo_total foo total (counter).
# TYPE foo_total counter
foo_total 1
foo_total{kind="x"} 2
# HELP sim_messages_injected_total Messages whose header flit entered the network.
# TYPE sim_messages_injected_total counter
sim_messages_injected_total 4
`
	if sb.String() != want {
		t.Errorf("Prometheus lint output:\n%s\nwant:\n%s", sb.String(), want)
	}

	// Structural lint pass over the full producer metric set: every family
	// has exactly one HELP immediately followed by one TYPE, and no family
	// reappears after another family started.
	full := NewRegistry()
	sink := NewMetricsSink(full)
	for _, e := range []Event{
		{Kind: KindInject, Msg: 0}, {Kind: KindFlit, Msg: 0, Ch: 1},
		{Kind: KindAcquire, Msg: 0, Ch: 1}, {Kind: KindRelease, Msg: 0, Ch: 1, Cycle: 3},
		{Kind: KindBlock, Msg: 0, Ch: 2, Owner: 1}, {Kind: KindUnblock, Msg: 0, Cycle: 5},
		{Kind: KindConsume, Msg: 0}, {Kind: KindDeliver, Msg: 0, N: 9},
		{Kind: KindThaw, Msg: 0}, {Kind: KindDeadlock, N: 2},
	} {
		sink.Event(e)
	}
	// The search engines write their gauges directly, not through the sink.
	for _, g := range []string{"mcheck_search_level", "mcheck_frontier_size", "mcheck_frontier_peak", "mcheck_states"} {
		full.Gauge(g).Set(1)
	}
	var full1 strings.Builder
	if err := full.WritePrometheus(&full1); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, full1.String())
}

// lintExposition applies the promtool-style structural rules to an
// exposition.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	seen := map[string]bool{}
	cur := ""
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "# HELP ") {
			base := strings.Fields(line)[2]
			if seen[base] {
				t.Errorf("line %d: family %s declared twice", i+1, base)
			}
			seen[base] = true
			cur = base
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+base+" ") {
				t.Errorf("line %d: HELP for %s not followed by its TYPE", i+1, base)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			base, kind := f[2], f[3]
			if base != cur {
				t.Errorf("line %d: TYPE %s without preceding HELP", i+1, base)
			}
			if kind == "counter" && !strings.HasSuffix(base, "_total") {
				t.Errorf("line %d: counter family %s lacks _total suffix", i+1, base)
			}
			continue
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		if !strings.HasPrefix(name, cur) {
			t.Errorf("line %d: series %s outside its family block (%s)", i+1, name, cur)
		}
	}
}

func TestRegistryRejectsLintViolations(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("counter without _total", func() { NewRegistry().Counter("hits") })
	expectPanic("labeled counter without _total", func() { NewRegistry().Counter(Label("hits", "k", 1)) })
	expectPanic("cross-type re-registration", func() {
		r := NewRegistry()
		r.Gauge("x_total")
		r.Counter("x_total")
	})
	expectPanic("histogram over existing gauge", func() {
		r := NewRegistry()
		r.Gauge("lat")
		r.Observe("lat", 1)
	})
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Inc()
	r.Counter("a_total").Add(2)
	r.Gauge("g").Set(-4)
	r.Observe("h", 1)

	var first, second strings.Builder
	if err := r.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("two snapshots of identical state differ")
	}
	want := `{
  "counters": {
    "a_total": 2,
    "z_total": 1
  },
  "gauges": {
    "g": -4
  },
  "histograms": {
    "h": {"count": 1, "sum": 1, "buckets": {"1": 1, "2": 1, "4": 1, "8": 1, "16": 1, "32": 1, "64": 1, "128": 1, "256": 1, "512": 1, "1024": 1, "4096": 1, "16384": 1, "+Inf": 1}}
  }
}
`
	if first.String() != want {
		t.Errorf("JSON snapshot:\n%s\nwant:\n%s", first.String(), want)
	}
}

func TestMetricsSinkFoldsEvents(t *testing.T) {
	r := NewRegistry()
	s := NewMetricsSink(r)

	inject := Ev(KindInject, 0)
	inject.Msg = 0
	s.Event(inject)

	acq := Ev(KindAcquire, 0)
	acq.Msg = 0
	acq.Ch = topology.ChannelID(2)
	s.Event(acq)

	blk := Ev(KindBlock, 1)
	blk.Msg = 0
	blk.Ch = topology.ChannelID(3)
	blk.Owner = 1
	s.Event(blk)

	unb := Ev(KindUnblock, 4)
	unb.Msg = 0
	s.Event(unb)

	rel := Ev(KindRelease, 5)
	rel.Msg = 0
	rel.Ch = topology.ChannelID(2)
	s.Event(rel)

	del := Ev(KindDeliver, 6)
	del.Msg = 0
	del.N = 7
	s.Event(del)

	thaw := Ev(KindThaw, 2)
	thaw.Msg = 1
	s.Event(thaw)

	if got := r.Counter("sim_messages_injected_total").Value(); got != 1 {
		t.Errorf("injected = %d", got)
	}
	if got := r.Counter("sim_cycles_blocked_total").Value(); got != 3 {
		t.Errorf("cycles blocked = %d, want 3 (cycle 1 to 4)", got)
	}
	if got := r.histograms["sim_channel_occupancy_cycles"].Count(); got != 1 {
		t.Errorf("occupancy observations = %d", got)
	}
	if got := r.histograms["sim_channel_occupancy_cycles"].Sum(); got != 6 {
		t.Errorf("occupancy sum = %d, want 6 (held cycles 0-5 inclusive)", got)
	}
	if got := r.histograms["sim_message_latency_cycles"].Sum(); got != 7 {
		t.Errorf("latency sum = %d, want 7", got)
	}
	if got := r.Counter("sim_freeze_expiries_total").Value(); got != 1 {
		t.Errorf("freeze expiries = %d", got)
	}
}
