package repro

// End-to-end exercise of the run observatory: a live Gen(4) search
// observed over HTTP while it runs — /metrics scrapes whose mcheck_states
// never decreases and ends on the result's state count, a healthy
// /healthz — and a run manifest on disk that matches the search's final
// result field for field.

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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

	// The search reports through an observer wired the way -serve,
	// -metrics and -manifest wire it.
	path := filepath.Join(t.TempDir(), "manifest.json")
	obs := &cli.Observer{Metrics: reg, Server: srv,
		Manifest: manifest.NewBuilder(path, "observatory_test", nil)}
	done := make(chan mcheck.SearchResult, 1)
	go func() {
		opts := obs.SearchOptions(mcheck.SearchOptions{
			StallBudget:         4,
			FreezeInTransitOnly: true,
			Reduction:           mcheck.RedAll,
		})
		res := mcheck.Search(pn.Scenario, opts)
		obs.SearchDone(name, pn.Scenario, res)
		done <- res
	}()

	// Poll /metrics until the search returns, then once more: the state
	// count a scraper sees must never go down.
	var scraped []int
	var res mcheck.SearchResult
	for running := true; running; {
		select {
		case res = <-done:
			running = false
		default:
		}
		if n, ok := scrapeGauge(t, ts.URL, "mcheck_states"); ok {
			scraped = append(scraped, n)
		}
	}
	if res.Verdict != mcheck.VerdictDeadlock {
		t.Fatalf("gen4 stall4 verdict = %v, want deadlock", res.Verdict)
	}
	for i := 1; i < len(scraped); i++ {
		if scraped[i] < scraped[i-1] {
			t.Fatalf("mcheck_states regressed between scrapes: scrape %d = %d, scrape %d = %d",
				i-1, scraped[i-1], i, scraped[i])
		}
	}
	if len(scraped) == 0 || scraped[len(scraped)-1] != res.States {
		t.Fatalf("scraped mcheck_states %v, want it to end on the result's %d", scraped, res.States)
	}
	t.Logf("%d scrapes saw mcheck_states", len(scraped))

	// The final exposition is promtool-shaped (HELP and TYPE per family).
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, mresp)
	for _, want := range []string{
		"# HELP mcheck_states ",
		"# TYPE mcheck_states gauge",
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

// scrapeGauge reads one unlabelled gauge from a /metrics scrape; ok is
// false while the family does not exist yet.
func scrapeGauge(t *testing.T, url, name string) (int, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("bad %s sample %q: %v", name, line, err)
			}
			return n, true
		}
	}
	return 0, false
}
