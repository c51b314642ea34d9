package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := obsv.NewRegistry()
	reg.Counter("sim_flits_moved_total").Add(42)
	reg.Gauge("mcheck_states").Set(7)
	s := New(reg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
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
	_, ts := newTestServer(t)
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
	_, ts := newTestServer(t)
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

func TestProgressSnapshotJSON(t *testing.T) {
	s, ts := newTestServer(t)

	// Before any publish: an empty object, still valid JSON.
	_, body := get(t, ts.URL+"/progress")
	if strings.TrimSpace(body) != "{}" {
		t.Errorf("empty progress = %q", body)
	}

	s.Hub().PublishSnapshot(Snapshot{Source: "search", Name: "gen4", Level: 3, States: 120})
	s.Hub().PublishSnapshot(Snapshot{Source: "search", Name: "gen4", Level: 4, States: 250})
	_, body = get(t, ts.URL+"/progress")
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress body: %v\n%s", err, body)
	}
	if snap.States != 250 || snap.Seq != 2 {
		t.Errorf("latest snapshot = %+v, want states 250 seq 2", snap)
	}
}

func TestProgressSSEStream(t *testing.T) {
	s, ts := newTestServer(t)
	s.Hub().PublishSnapshot(Snapshot{Source: "search", States: 1}) // pre-seeded for late subscribers

	resp, err := http.Get(ts.URL + "/progress?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	go func() {
		// Give the handler a moment to subscribe, then publish two more.
		time.Sleep(50 * time.Millisecond)
		s.Hub().PublishSnapshot(Snapshot{Source: "search", States: 2})
		s.Hub().PublishSnapshot(Snapshot{Source: "search", States: 3, Done: true, Verdict: "no-deadlock"})
	}()

	var states []int
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			t.Fatalf("bad SSE event %q: %v", line, err)
		}
		states = append(states, snap.States)
		if snap.Done {
			break
		}
	}
	if len(states) < 3 || states[0] != 1 || states[len(states)-1] != 3 {
		t.Errorf("streamed states = %v, want [1 2 3]", states)
	}
}

func TestHubDropsSlowSubscribers(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe()
	defer cancel()
	// Publish far more than the subscriber buffer without draining: must
	// not block, and the channel must still deliver up to its capacity.
	for i := 0; i < 100; i++ {
		h.PublishSnapshot(Snapshot{States: i})
	}
	if got := len(ch); got == 0 || got > 16 {
		t.Errorf("buffered events = %d, want 1..16", got)
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
