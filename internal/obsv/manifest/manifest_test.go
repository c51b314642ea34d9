package manifest

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestBuilderWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "run.json")
	b := NewBuilder(path, "deadlock", []string{"-paper", "figure1", "-verify"})

	fs := flag.NewFlagSet("deadlock", flag.ContinueOnError)
	fs.String("paper", "", "")
	fs.Bool("verify", false, "")
	fs.Int("stall", 3, "") // left at default: must not appear in Flags
	if err := fs.Parse([]string{"-paper", "figure1", "-verify"}); err != nil {
		t.Fatal(err)
	}
	b.CaptureFlags(fs)

	b.AddRun(Run{
		Name:         "figure1",
		Scenario:     "figure1",
		TopologyHash: "0123456789abcdef",
		Verdict:      "deadlock",
		States:       2996,
		StatesPerSec: 1_000_000,
		Workers:      4,
	})
	b.SetProfiles("prof/cpu.pprof", "prof/heap.pprof")
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}

	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Command != "deadlock" || len(m.Args) != 3 {
		t.Errorf("command/args = %q %v", m.Command, m.Args)
	}
	if m.Flags["paper"] != "figure1" || m.Flags["verify"] != "true" {
		t.Errorf("flags = %v", m.Flags)
	}
	if _, ok := m.Flags["stall"]; ok {
		t.Errorf("defaulted flag recorded: %v", m.Flags)
	}
	if len(m.Runs) != 1 || m.Runs[0].Verdict != "deadlock" || m.Runs[0].States != 2996 {
		t.Errorf("runs = %+v", m.Runs)
	}
	if m.Profiles == nil || m.Profiles.CPU != "prof/cpu.pprof" {
		t.Errorf("profiles = %+v", m.Profiles)
	}
	if m.WallTimeMS < 0 || m.GoVersion == "" {
		t.Errorf("resource stamps: wall %d, go %q", m.WallTimeMS, m.GoVersion)
	}
}

func TestWriteOmitsEmptyRunFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	b := NewBuilder(path, "deadlock", nil)
	b.AddRun(Run{Name: "figure1", States: 120, SpillRuns: 0})
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"verdict", "topology_hash", "reduction", "spill_runs", "warnings"} {
		if strings.Contains(string(raw), `"`+absent+`"`) {
			t.Errorf("empty field %q serialized:\n%s", absent, raw)
		}
	}
	if !strings.Contains(string(raw), `"states": 120`) {
		t.Errorf("states missing:\n%s", raw)
	}
}

func TestTopologyHash(t *testing.T) {
	ring := func(n int) *topology.Network {
		net := topology.New("ring")
		net.AddNodes(n)
		for i := 0; i < n; i++ {
			net.AddChannel(topology.NodeID(i), topology.NodeID((i+1)%n), 1, "")
		}
		return net
	}
	h4a, h4b, h5 := TopologyHash(ring(4)), TopologyHash(ring(4)), TopologyHash(ring(5))
	if h4a != h4b {
		t.Errorf("identical topologies hash differently: %s vs %s", h4a, h4b)
	}
	if h4a == h5 {
		t.Errorf("distinct topologies collide: %s", h4a)
	}
	if len(h4a) != 16 {
		t.Errorf("hash length = %d, want 16", len(h4a))
	}
	if TopologyHash(nil) != "" {
		t.Error("nil network must hash to empty string")
	}
}

func TestReductionRatio(t *testing.T) {
	if got := ReductionRatio(818, 0); got != 0 {
		t.Errorf("no pruning ratio = %v", got)
	}
	if got := ReductionRatio(75, 25); got != 0.25 {
		t.Errorf("ratio = %v, want 0.25", got)
	}
}

func TestProfilerWritesBothProfiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	p, err := StartProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i % 7
	}
	_ = x
	cpu, heap, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, heap} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestManifestJSONFieldOrderStable(t *testing.T) {
	// Two writes of the same builder content must produce the same field
	// sequence (struct order), so manifests diff cleanly across runs.
	path := filepath.Join(t.TempDir(), "m.json")
	b := NewBuilder(path, "x", nil)
	if err := b.Write(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	idx := strings.Index
	if !(idx(string(raw), `"command"`) < idx(string(raw), `"start"`) &&
		idx(string(raw), `"start"`) < idx(string(raw), `"wall_time_ms"`)) {
		t.Errorf("field order unstable:\n%s", raw)
	}
}
