package cli

import (
	"bytes"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/papernets"
)

// tickOnLevel ticks the printer from inside the search, one synthetic
// second per BFS level. A level's trace event comes before the search
// sets that level's gauges, so each tick sees the previous level, the way
// a wall-clock tick sees a long search's latest level.
type tickOnLevel struct {
	p   *progressPrinter
	now time.Time
}

func (t *tickOnLevel) Event(e obsv.Event) {
	if e.Kind == obsv.KindSearchLevel {
		t.now = t.now.Add(time.Second)
		t.p.tick(t.now)
	}
}

// families lists the metric family names of a registry's exposition.
func families(t *testing.T, reg *obsv.Registry) []string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(b.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, f)
		}
	}
	return out
}

// The -progress printer reads a registry filled by a real search: one
// line per level whose gauges moved, with consecutive levels and
// non-decreasing state counts, the last live line at the result's state
// count, a final line from the result, nothing once the search is done,
// and no metric family of its own.
func TestProgressPrinterReadsSearchGauges(t *testing.T) {
	pn := papernets.Figure1()
	for _, tc := range []struct {
		name    string
		visited mcheck.VisitedConfig
	}{
		{"mem", mcheck.VisitedConfig{}},
		{"spill", mcheck.VisitedConfig{Backend: mcheck.VisitedSpill, MemBudget: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obsv.NewRegistry()
			var out bytes.Buffer
			p := &progressPrinter{reg: reg, w: &out}
			o := &Observer{Metrics: reg, progress: p}
			opts := o.SearchOptions(mcheck.SearchOptions{
				FreezeInTransitOnly: true, Parallelism: 1, Visited: tc.visited,
			})
			ticker := &tickOnLevel{p: p, now: p.start}
			opts.Tracer = ticker
			res := mcheck.Search(pn.Scenario, opts)
			ticker.Event(obsv.Ev(obsv.KindSearchLevel, 0)) // the last level's gauges
			ticker.Event(obsv.Ev(obsv.KindSearchLevel, 0)) // unchanged: no line
			o.SearchDone("figure1", pn.Scenario, res)
			ticker.Event(obsv.Ev(obsv.KindSearchLevel, 0)) // between searches: no line

			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) < 3 {
				t.Fatalf("progress output:\n%s\nwant live lines and a final one", out.String())
			}
			live, final := lines[:len(lines)-1], lines[len(lines)-1]
			var prevLevel, prevStates int
			spilled := false
			for i, line := range live {
				var level, frontier, states int
				if _, err := fmt.Sscanf(line, "search: level %d, frontier %d, %d states,", &level, &frontier, &states); err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				// The level-0 tick finds no gauges yet, so line i is the
				// tick i+2 seconds in.
				elapsed := time.Duration(i+2) * time.Second
				prefix := fmt.Sprintf("search: level %d, frontier %d, %d states, %.0f states/sec, visited ",
					level, frontier, states, float64(states)/elapsed.Seconds())
				if frontier < 1 || !strings.HasPrefix(line, prefix) || !strings.HasSuffix(line, ", "+elapsed.String()) {
					t.Errorf("line %d %q: want a non-empty frontier, prefix %q and %s elapsed", i, line, prefix, elapsed)
				}
				if i == 0 && (level != 0 || states != 1) {
					t.Errorf("first line %q, want the root level", line)
				}
				if i > 0 && (level != prevLevel+1 || states < prevStates) {
					t.Errorf("line %d %q after level %d with %d states", i, line, prevLevel, prevStates)
				}
				prevLevel, prevStates = level, states
				spilled = spilled || strings.Contains(line, " spilled), ")
			}
			if prevStates != res.States {
				t.Errorf("last live line at %d states, want the result's %d", prevStates, res.States)
			}
			if spilled != (tc.visited.Backend == mcheck.VisitedSpill) {
				t.Errorf("spilled shown %v on the %s backend", spilled, tc.name)
			}
			wantFinal := fmt.Sprintf("search: level %d, frontier 0, %d states, %.0f states/sec, visited %s",
				prevLevel, res.States, res.StatesPerSec, FormatBytes(res.Visited.Bytes))
			if !strings.HasPrefix(final, wantFinal) {
				t.Errorf("final line %q, want prefix %q", final, wantFinal)
			}

			bare := obsv.NewRegistry()
			mcheck.Search(pn.Scenario, mcheck.SearchOptions{
				FreezeInTransitOnly: true, Parallelism: 1, Visited: tc.visited, Metrics: bare,
			})
			if got, want := families(t, reg), families(t, bare); !slices.Equal(got, want) {
				t.Errorf("families with the printer %v, without %v", got, want)
			}
		})
	}
}

// -progress alone opens a registry for the search gauges and starts the
// printer, but attaches no tracer, so simulations stay untraced.
func TestProgressFlagOpensRegistryOnly(t *testing.T) {
	fs := flag.NewFlagSet("progress", flag.ContinueOnError)
	f := registerObsvFlags(fs).WithProgress()
	if err := fs.Parse([]string{"-progress"}); err != nil {
		t.Fatal(err)
	}
	o, err := f.Open("progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Metrics == nil || o.progress == nil || o.Tracer != nil {
		t.Errorf("-progress: metrics %v, printer %v, tracer %v; want a registry and a printer, no tracer",
			o.Metrics != nil, o.progress != nil, o.Tracer)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}

// Ticks from another goroutine race with searches starting, running and
// finishing; the printer's lock orders them (run under -race), and every
// search still ends on exactly one final line.
func TestProgressPrinterConcurrentTicks(t *testing.T) {
	reg := obsv.NewRegistry()
	var out bytes.Buffer
	p := startProgress(reg, &out)
	o := &Observer{Metrics: reg, progress: p}
	quit, ticking := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticking)
		for {
			select {
			case <-quit:
				return
			default:
				p.tick(time.Now())
			}
		}
	}()
	pn := papernets.Figure1()
	const searches = 3
	for i := 0; i < searches; i++ {
		res := mcheck.Search(pn.Scenario, o.SearchOptions(mcheck.SearchOptions{FreezeInTransitOnly: true, Parallelism: 2}))
		o.SearchDone("figure1", pn.Scenario, res)
	}
	close(quit)
	<-ticking
	p.stop()
	if n := strings.Count(out.String(), ", frontier 0, "); n != searches {
		t.Errorf("%d final lines, want %d:\n%s", n, searches, out.String())
	}
}
