package obsv_test

// End-to-end tests of the observability layer against the real
// producers: the simulator and the exhaustive search.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/topology"
)

// searchTrace runs the Theorem 1 search with a JSONL sink and the given
// worker count, returning the trace bytes.
func searchTrace(t *testing.T, workers int) string {
	t.Helper()
	var sb strings.Builder
	s := obsv.NewJSONL(&sb)
	res := mcheck.Search(papernets.Figure1().Scenario, mcheck.SearchOptions{
		Tracer:      s,
		Parallelism: workers,
	})
	if res.Verdict != mcheck.VerdictNoDeadlock {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSearchTraceDeterminism is the trace side of the determinism
// contract: the JSONL trace of a fixed scenario is byte-identical across
// runs and across Parallelism settings, because search events are
// emitted only from the single-threaded level merge.
func TestSearchTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search in -short mode")
	}
	first := searchTrace(t, 1)
	if again := searchTrace(t, 1); again != first {
		t.Error("same-options traces differ between runs")
	}
	if par := searchTrace(t, 4); par != first {
		t.Error("Parallelism=4 trace differs from Parallelism=1 trace")
	}
	if !strings.Contains(first, `"k":"search-level"`) || !strings.Contains(first, `"k":"search-done"`) {
		t.Errorf("trace is missing search events:\n%.400s", first)
	}
	if !strings.Contains(first, `"note":"no-deadlock"`) {
		t.Errorf("search-done should carry the verdict:\n%.400s", first)
	}
}

// TestSimTraceDeterminism: the concrete simulation's event stream is a
// pure function of the scenario.
func TestSimTraceDeterminism(t *testing.T) {
	run := func() string {
		var sb strings.Builder
		sink := obsv.NewJSONL(&sb)
		s := papernets.Figure1().Scenario.NewSim()
		s.SetTracer(sink)
		s.Run(10_000)
		sink.Close()
		return sb.String()
	}
	if run() != run() {
		t.Error("sim traces of the same scenario differ")
	}
}

// TestFigure1TraceShowsTheorem1 drives the paper's central argument out
// of a trace: the Figure 1 network's CDG has a (14-channel) cycle, yet
// the wait-for graph of the actual run — snapshotted by the DOT sink at
// every change — never closes a cycle, and the run delivers.
func TestFigure1TraceShowsTheorem1(t *testing.T) {
	pn := papernets.Figure1()

	cycles, _ := cdg.New(pn.Alg).Cycles(0)
	if len(cycles) != 1 || len(cycles[0]) != 14 {
		t.Fatalf("CDG cycles = %d", len(cycles))
	}

	var sb strings.Builder
	sink := obsv.NewDOT(&sb, pn.Scenario.Name)
	s := pn.Scenario.NewSim()
	s.SetTracer(sink)
	out := s.Run(10_000)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()

	if out.Result.String() != "delivered" {
		t.Fatalf("outcome = %v", out.Result)
	}
	if !strings.Contains(dot, "->") {
		t.Fatalf("no wait-for edges ever formed — the adversarial message set should contend:\n%s", dot)
	}
	if strings.Contains(dot, "color=red") {
		t.Errorf("a wait-for cycle closed on Figure 1 — Theorem 1 violated:\n%s", dot)
	}
	if !strings.Contains(dot, "[delivered]") {
		t.Errorf("final snapshot should carry the outcome:\n%s", dot)
	}
}

// TestSimEventStreamInvariants checks the recorded event sequence of a
// delivered run for internal consistency.
func TestSimEventStreamInvariants(t *testing.T) {
	pn := papernets.Figure1()
	rec := &obsv.Recorder{}
	s := pn.Scenario.NewSim()
	s.SetTracer(rec)
	s.Run(10_000)

	msgs := len(pn.Scenario.Msgs)
	if got := rec.Count(obsv.KindInject); got != msgs {
		t.Errorf("injects = %d, want %d", got, msgs)
	}
	if got := rec.Count(obsv.KindDeliver); got != msgs {
		t.Errorf("delivers = %d, want %d", got, msgs)
	}
	if a, r := rec.Count(obsv.KindAcquire), rec.Count(obsv.KindRelease); a != r {
		t.Errorf("acquires (%d) != releases (%d) on a fully delivered run", a, r)
	}
	if b, u := rec.Count(obsv.KindBlock), rec.Count(obsv.KindUnblock); b != u {
		t.Errorf("blocks (%d) != unblocks (%d) on a fully delivered run", b, u)
	}
	if add, del := rec.Count(obsv.KindWaitEdgeAdd), rec.Count(obsv.KindWaitEdgeDel); add != del {
		t.Errorf("wait-adds (%d) != wait-dels (%d) on a fully delivered run", add, del)
	}
	if rec.Count(obsv.KindBlock) == 0 {
		t.Error("the Figure 1 message set should block at least once")
	}

	// Per-channel acquire/release alternation.
	held := map[topology.ChannelID]int{}
	for _, e := range rec.Events {
		switch e.Kind {
		case obsv.KindAcquire:
			if owner, ok := held[e.Ch]; ok {
				t.Fatalf("c%d acquired by m%d while held by m%d", e.Ch, e.Msg, owner)
			}
			held[e.Ch] = e.Msg
		case obsv.KindRelease:
			if owner, ok := held[e.Ch]; !ok || owner != e.Msg {
				t.Fatalf("c%d released by m%d but held by %v", e.Ch, e.Msg, held[e.Ch])
			}
			delete(held, e.Ch)
		}
	}
	if len(held) != 0 {
		t.Errorf("channels still held after delivery: %v", held)
	}

	// The stream ends with the outcome, and latency events are sane.
	last := rec.Events[len(rec.Events)-1]
	if last.Kind != obsv.KindOutcome || last.Note != "delivered" {
		t.Errorf("last event = %+v, want outcome/delivered", last)
	}
	for _, e := range rec.Events {
		if e.Kind == obsv.KindDeliver && e.N <= 0 {
			t.Errorf("deliver of m%d carries latency %d", e.Msg, e.N)
		}
	}
}

// TestDeadlockEmitsCertificate: a run into a true deadlock (Figure 2's
// two-sharer configuration) traces a deadlock event before the outcome.
func TestDeadlockEmitsCertificate(t *testing.T) {
	rec := &obsv.Recorder{}
	s := papernets.Figure2().Scenario.NewSim()
	s.SetTracer(rec)
	s.Run(10_000)
	if rec.Count(obsv.KindDeadlock) != 1 {
		t.Fatalf("deadlock events = %d, want 1", rec.Count(obsv.KindDeadlock))
	}
	last := rec.Events[len(rec.Events)-1]
	if last.Kind != obsv.KindOutcome || last.Note != "deadlock" {
		t.Errorf("last event = %+v, want outcome/deadlock", last)
	}
}

// TestFreezeExpiryTracesThaw: a Section 6 freeze placed mid-flight
// traces exactly one thaw event when it expires, and the run still
// delivers.
func TestFreezeExpiryTracesThaw(t *testing.T) {
	rec := &obsv.Recorder{}
	s := papernets.Figure1().Scenario.NewSim()
	s.SetTracer(rec)
	s.Step()
	s.SetFrozen(0, 3)
	if out := s.Run(10_000); out.Result != sim.ResultDelivered {
		t.Fatalf("outcome = %v", out.Result)
	}
	if rec.Count(obsv.KindThaw) != 1 {
		t.Errorf("thaw events = %d, want 1", rec.Count(obsv.KindThaw))
	}
}

// TestMetricsExpositionGolden pins both metrics exporters byte for byte:
// the Figure 1 run (delivers) and the Figure 2 run (deadlocks) are
// folded through a MetricsSink, and the Prometheus text and JSON
// snapshots must equal the files under testdata/.
func TestMetricsExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *papernets.Net
		want sim.Result
	}{
		{"figure1", papernets.Figure1(), sim.ResultDelivered},
		{"figure2", papernets.Figure2(), sim.ResultDeadlock},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obsv.NewRegistry()
			s := tc.net.Scenario.NewSim()
			s.SetTracer(obsv.NewMetricsSink(reg))
			if out := s.Run(10_000); out.Result != tc.want {
				t.Fatalf("result = %s, want %s", out.Result, tc.want)
			}
			var prom, js bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			if err := reg.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			for file, got := range map[string][]byte{
				tc.name + "_metrics.prom": prom.Bytes(),
				tc.name + "_metrics.json": js.Bytes(),
			} {
				want, err := os.ReadFile(filepath.Join("testdata", file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs:\n%s\n--- want ---\n%s", file, got, want)
				}
			}
		})
	}
}
