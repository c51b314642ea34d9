package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figure2Bundle is the flight.jsonl of the Figure 2 deadlock, dumped by
// wormsim -paper figure2 -telemetry 2 -telemetry-adaptive
// -telemetry-window 32K -flight-recorder <dir>. Its third line is the
// waitgraph line.
func figure2Bundle(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "figure2_flight.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// malformedWaitGraphs are waitgraph lines that name impossible message
// or channel IDs; the first four once panicked ParseBundle.
var malformedWaitGraphs = []string{
	`{"waitgraph":true,"seen":[],"edges":[[-1,0,0]],"held":[]}`,
	`{"waitgraph":true,"seen":[-3],"edges":[],"held":[]}`,
	`{"waitgraph":true,"seen":[],"edges":[],"held":[[-1,0]]}`,
	`{"waitgraph":true,"seen":[],"edges":[[0,0,-1]],"held":[]}`,
	`{"waitgraph":true,"seen":[4000000000],"edges":[],"held":[]}`,
	`{"waitgraph":true,"seen":[],"edges":[[0,33,1]],"held":[]}`,
	`{"waitgraph":true,"seen":[],"edges":[],"held":[[33,0]]}`,
	`{"waitgraph":true,"seen":[],"edges":[],"held":[[0,-1]]}`,
}

// withWaitGraph returns the Figure 2 bundle with its waitgraph line
// replaced.
func withWaitGraph(tb testing.TB, line string) []byte {
	lines := bytes.Split(figure2Bundle(tb), []byte("\n"))
	if !bytes.HasPrefix(lines[2], []byte(`{"waitgraph":`)) {
		tb.Fatalf("fixture line 3 is not the waitgraph line: %s", lines[2])
	}
	lines[2] = []byte(line)
	return bytes.Join(lines, []byte("\n"))
}

// TestParseBundleRejectsMalformedWaitGraph: each out-of-range ID is an
// error naming the waitgraph line, never a panic or a huge allocation.
func TestParseBundleRejectsMalformedWaitGraph(t *testing.T) {
	if _, err := ParseBundle(bytes.NewReader(figure2Bundle(t))); err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	for _, line := range malformedWaitGraphs {
		_, err := ParseBundle(bytes.NewReader(withWaitGraph(t, line)))
		if err == nil || !strings.Contains(err.Error(), "waitgraph line 3") {
			t.Errorf("%s: err = %v, want an error naming waitgraph line 3", line, err)
		}
	}
}

// FuzzParseBundle: every input either fails to parse or parses into a
// bundle whose wait-for DOT and heatmap render; nothing panics.
func FuzzParseBundle(f *testing.F) {
	f.Add(figure2Bundle(f))
	for _, line := range malformedWaitGraphs {
		f.Add(withWaitGraph(f, line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		b.RenderDOT()
		b.RenderHeatmap()
	})
}
