package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obsv"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := obsv.NewRegistry()
	reg.Counter("sim_flits_moved_total").Add(42)
	reg.Gauge("mcheck_states").Set(7)
	s := New(reg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return resp.StatusCode, sb.String()
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, body)
	}
	if doc["status"] != "ok" {
		t.Errorf("status field = %v", doc["status"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"# HELP sim_flits_moved_total",
		"# TYPE sim_flits_moved_total counter",
		"sim_flits_moved_total 42",
		"mcheck_states 7",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsEndpointNilRegistry(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || body != "" {
		t.Fatalf("nil-registry /metrics: status %d body %q", code, body)
	}
}

func TestStartBindsEphemeralPort(t *testing.T) {
	s := New(nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, _ := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz over real listener: status %d", code)
	}
	// pprof index must answer too (the handlers are wired, not inherited
	// from DefaultServeMux).
	code, body := get(t, "http://"+addr+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("pprof index: status %d", code)
	}
}
