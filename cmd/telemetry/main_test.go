package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obsv"
	"repro/internal/obsv/telemetry"
	"repro/internal/topology"
)

// dumpFixture builds a deterministic flight bundle: a small mesh with a
// two-message wait cycle, adaptive-stride telemetry with a window, and
// an attached SLO report.
func dumpFixture(t *testing.T, dir string) {
	t.Helper()
	g := topology.NewMesh([]int{2, 2}, 1)
	c := telemetry.NewCollector(g.Network.NumChannels(), telemetry.Config{
		Stride: 2, FrameEvery: 2, Adaptive: true, MaxStride: 8, WindowBytes: 4 << 10,
	})
	r := telemetry.NewFlightRecorder(g.Network, 8, c)
	var flits int64
	for now := 0; now < 120; now++ {
		if !c.Due(now) {
			continue
		}
		busy, _, blocked := c.Accum()
		if now < 60 {
			busy[0]++
			busy[1]++
			blocked[2]++
		}
		flits++
		c.FinishSample(now, flits, 2)
	}
	r.Event(obsv.Event{Kind: obsv.KindWaitEdgeAdd, Cycle: 100, Msg: 0, Ch: 1, Owner: 1})
	r.Event(obsv.Event{Kind: obsv.KindWaitEdgeAdd, Cycle: 100, Msg: 1, Ch: 2, Owner: 0})
	r.Event(obsv.Event{Kind: obsv.KindDeadlock, Cycle: 101, N: 2})

	bank := telemetry.NewBank(4)
	bank.Observe(0, 120)
	bank.Observe(1, 900)
	objs, err := telemetry.ParseSLO("p99<=500")
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(bank.Evaluate(objs).AppendJSON(nil))

	if err := r.Dump(dir, ""); err != nil {
		t.Fatal(err)
	}
}

func TestReplayDeterministicAndFaithful(t *testing.T) {
	bundle := t.TempDir()
	dumpFixture(t, bundle)

	out1 := filepath.Join(t.TempDir(), "r1")
	out2 := filepath.Join(t.TempDir(), "r2")
	for _, out := range []string{out1, out2} {
		code, err := replay(bundle, out, false)
		if err != nil || code != 0 {
			t.Fatalf("replay: code %d err %v", code, err)
		}
	}
	names := []string{"summary.json", "waitfor.dot", "heatmap.svg", "heatmap_anim.svg", "timeline.svg"}
	for _, name := range names {
		a, err := os.ReadFile(filepath.Join(out1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(out2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s not byte-deterministic across replays", name)
		}
		if len(a) == 0 {
			t.Fatalf("%s empty", name)
		}
	}

	// The replayed wait-for DOT must be byte-identical to the original
	// recorder's artifact — the shared renderer guarantee.
	orig, err := os.ReadFile(filepath.Join(bundle, "waitfor.dot"))
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := os.ReadFile(filepath.Join(out1, "waitfor.dot"))
	if !bytes.Equal(orig, rep) {
		t.Fatalf("replayed waitfor.dot diverged from original:\n--- original\n%s\n--- replay\n%s", orig, rep)
	}

	// Free text (SLO specs, reasons) must be XML-escaped in SVG text
	// nodes, or "p99<=500" breaks well-formedness.
	tl, _ := os.ReadFile(filepath.Join(out1, "timeline.svg"))
	if !bytes.Contains(tl, []byte("p99&lt;=500")) || bytes.Contains(tl, []byte("p99<=500")) {
		t.Fatalf("timeline.svg SLO spec not XML-escaped:\n%s", tl)
	}

	sum, _ := os.ReadFile(filepath.Join(out1, "summary.json"))
	for _, want := range []string{`"telemetry_replay":true`, `"reason":"deadlock"`, `"window":{`, `"slo_violations":2`} {
		if !bytes.Contains(sum, []byte(want)) {
			t.Fatalf("summary missing %s:\n%s", want, sum)
		}
	}
}

func TestReplayCheckSLOExitCode(t *testing.T) {
	bundle := t.TempDir()
	dumpFixture(t, bundle)
	code, err := replay(bundle, filepath.Join(t.TempDir(), "out"), true)
	if err != nil {
		t.Fatal(err)
	}
	if code != 4 {
		t.Fatalf("check-slo exit code %d, want 4 (fixture violates p99<=500)", code)
	}
}

func TestReplayRejectsNonBundle(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "flight.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replay(dir, filepath.Join(dir, "out"), false); err == nil {
		t.Fatal("replay accepted a non-bundle header")
	}
}
