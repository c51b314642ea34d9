package repro

// End-to-end exercise of the run observatory: a live Gen(4) search
// observed over HTTP while it runs — /progress events with monotonically
// non-decreasing state counts, a /metrics scrape mid-run, a healthy
// /healthz — and a run manifest on disk that matches the search's final
// result field for field.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/obsv/manifest"
	"repro/internal/obsv/serve"
	"repro/internal/papernets"
)

func TestObservatoryLiveSearch(t *testing.T) {
	reg := obsv.NewRegistry()
	srv := serve.New(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pn := papernets.GenK(4)
	const name = "gen4 stall4"

	// Subscribe to the SSE stream before the search starts so no event is
	// missed.
	resp, err := http.Get(ts.URL + "/progress?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The search reports through an observer wired the way -serve,
	// -metrics and -manifest wire it.
	path := filepath.Join(t.TempDir(), "manifest.json")
	obs := &cli.Observer{Metrics: reg, Server: srv,
		Manifest: manifest.NewBuilder(path, "observatory_test", nil)}
	done := make(chan mcheck.SearchResult, 1)
	go func() {
		opts := obs.SearchOptions(name, mcheck.SearchOptions{
			StallBudget:         4,
			FreezeInTransitOnly: true,
			Reduction:           mcheck.RedAll,
		})
		opts.ProgressEvery = time.Nanosecond
		res := mcheck.Search(pn.Scenario, opts)
		obs.SearchDone(name, pn.Scenario, res)
		done <- res
	}()

	// Drain the stream until the Done event, asserting monotonicity.
	var events []serve.Snapshot
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(60 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var snap serve.Snapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			t.Fatalf("bad SSE event %q: %v", line, err)
		}
		events = append(events, snap)
		if snap.Done {
			break
		}
	}
	res := <-done

	if res.Verdict != mcheck.VerdictDeadlock {
		t.Fatalf("gen4 stall4 verdict = %v, want deadlock", res.Verdict)
	}
	if len(events) < 2 {
		t.Fatalf("observed %d progress events, want at least a live one plus Done", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].States < events[i-1].States {
			t.Fatalf("visited count regressed on the stream: event %d = %d, event %d = %d",
				i-1, events[i-1].States, i, events[i].States)
		}
	}
	final := events[len(events)-1]
	if !final.Done || final.Verdict != res.Verdict.String() || final.States != res.States {
		t.Errorf("final stream event %+v does not match result %v/%d", final, res.Verdict, res.States)
	}

	// /metrics after the search: the search gauges must be present and
	// promtool-shaped (HELP and TYPE per family).
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, mresp)
	for _, want := range []string{
		"# HELP mcheck_states ",
		"# TYPE mcheck_states gauge",
		"mcheck_states " + itoa(res.States),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz still answers.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hbody := readAll(t, hresp); !strings.Contains(hbody, `"status":"ok"`) {
		t.Errorf("healthz = %s", hbody)
	}

	// Manifest round-trip: the on-disk document matches the SearchResult.
	if err := obs.Manifest.Write(); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 1 {
		t.Fatalf("manifest runs = %d", len(m.Runs))
	}
	got := m.Runs[0]
	if got.Verdict != res.Verdict.String() || got.States != res.States {
		t.Errorf("manifest verdict/states = %s/%d, result = %v/%d", got.Verdict, got.States, res.Verdict, res.States)
	}
	if got.Reduction != res.Reduction.String() || got.StatesPruned != res.StatesPruned {
		t.Errorf("manifest reduction stats = %s/%d, result = %v/%d",
			got.Reduction, got.StatesPruned, res.Reduction, res.StatesPruned)
	}
	if want := manifest.ReductionRatio(res.States, res.StatesPruned); got.ReductionRatio != want {
		t.Errorf("manifest reduction ratio = %v, want %v", got.ReductionRatio, want)
	}
	if got.TopologyHash == "" || got.Workers != res.Workers || got.Scenario != pn.Scenario.Name {
		t.Errorf("manifest run = %+v", got)
	}
	if m.WallTimeMS < 0 || m.Command != "observatory_test" {
		t.Errorf("manifest header = %+v", m)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func itoa(v int) string {
	var b []byte
	if v == 0 {
		return "0"
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
