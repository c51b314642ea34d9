package repro

// End-to-end exercise of the flight recorder on the paper's canonical
// true deadlock: Figure 2, the modified cyclic configuration whose
// resource cycle is real (Figure 1's false resource cycle provably never
// closes under fair arbitration — that is Theorem 1 — so the deadlocking
// sibling scenario is the golden fixture). The dump must contain
// retained telemetry frames, the final wait-for graph with the closed
// cycle, and a congestion heatmap whose hottest channel lies on the
// deadlock cycle — and the whole bundle must be byte-deterministic
// across identical runs.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obsv/telemetry"
	"repro/internal/papernets"
	"repro/internal/sim"
)

// runFigure2Deadlock drives one instrumented Figure-2 run into its
// deadlock and dumps the flight bundle into dir.
func runFigure2Deadlock(t *testing.T, dir string) (*telemetry.FlightRecorder, *telemetry.Collector) {
	t.Helper()
	pn := papernets.Figure2()
	s := pn.Scenario.NewSim()
	col := telemetry.NewCollector(pn.Network.NumChannels(), telemetry.Config{Stride: 1, FrameEvery: 4})
	rec := telemetry.NewFlightRecorder(pn.Network, 0, col)
	s.SetTelemetry(col)
	s.SetTracer(rec)
	out := s.Run(10_000)
	if out.Result != sim.ResultDeadlock {
		t.Fatalf("result = %s; the Figure 2 configuration must deadlock", out.Result)
	}
	if err := rec.Dump(dir, ""); err != nil {
		t.Fatal(err)
	}
	return rec, col
}

func TestFlightRecorderFigure2DeadlockDump(t *testing.T) {
	dir := t.TempDir()
	rec, col := runFigure2Deadlock(t, dir)

	// flight.jsonl: header with the deadlock reason and at least one
	// retained telemetry frame.
	jsonl, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	head := string(jsonl[:bytes.IndexByte(jsonl, '\n')])
	if !strings.Contains(head, `"reason":"deadlock"`) {
		t.Fatalf("header reason: %s", head)
	}
	if col.FramesClosed() < 1 || !bytes.Contains(jsonl, []byte(`"frame":0`)) {
		t.Fatalf("bundle has no telemetry frames (closed %d):\n%s", col.FramesClosed(), head)
	}
	if !bytes.Contains(jsonl, []byte(`"k":"deadlock"`)) {
		t.Fatal("event ring lost the deadlock certificate")
	}

	// waitfor.dot: the final graph must show a closed (red) cycle.
	dot, err := os.ReadFile(filepath.Join(dir, "waitfor.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(dot, []byte("color=red")) {
		t.Fatalf("wait-for graph has no closed cycle:\n%s", dot)
	}
	cycleChs := rec.CycleChannels()
	if len(cycleChs) == 0 {
		t.Fatal("recorder tracked no deadlock-cycle channels")
	}

	// heatmap.svg: present, and the hottest channel lies on the cycle —
	// the channels both held and waited on dominate the congestion
	// totals once the network wedges.
	if _, err := os.Stat(filepath.Join(dir, "heatmap.svg")); err != nil {
		t.Fatal(err)
	}
	hot, _, ok := col.Hottest()
	if !ok {
		t.Fatal("collector sampled no congestion")
	}
	onCycle := false
	for _, ch := range cycleChs {
		if int(ch) == hot {
			onCycle = true
		}
	}
	if !onCycle {
		t.Fatalf("hottest channel c%d not on the deadlock cycle %v", hot, cycleChs)
	}
}

// TestFlightRecorderDumpDeterministic pins the bundle bytes across two
// identical runs: frames, events, graph and heatmap carry only logical
// quantities, so nothing may differ.
func TestFlightRecorderDumpDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	runFigure2Deadlock(t, dirA)
	runFigure2Deadlock(t, dirB)
	for _, name := range []string{"flight.jsonl", "waitfor.dot", "heatmap.svg"} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between identical runs", name)
		}
	}
}

// TestTelemetryFramesDeterministic pins the live frame stream itself:
// two identical simulations publishing through OnFrame must render
// byte-identical JSON sequences (the property the loadtest -workers
// byte-stability smoke relies on). Figure 1's full false-cycle run is
// the driver: it stresses every frame field (injection, contention,
// drain) and, per Theorem 1, delivers.
func TestTelemetryFramesDeterministic(t *testing.T) {
	drive := func() []byte {
		pn := papernets.Figure1()
		s := pn.Scenario.NewSim()
		col := telemetry.NewCollector(pn.Network.NumChannels(), telemetry.Config{Stride: 2, FrameEvery: 4})
		var out []byte
		col.OnFrame = func(f *telemetry.Frame) {
			out = f.AppendJSON(out)
			out = append(out, '\n')
		}
		s.SetTelemetry(col)
		if res := s.Run(10_000); res.Result != sim.ResultDelivered {
			t.Fatalf("figure1 must deliver, got %s", res.Result)
		}
		col.Flush()
		return out
	}
	a, b := drive(), drive()
	if len(a) == 0 {
		t.Fatal("no frames published")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("frame streams differ:\n%s\n---\n%s", a, b)
	}
}

// TestTelemetryAdaptiveFramesDeterministic extends the frame-stream pin
// to adaptive sampling: the stride schedule is a pure function of
// sampled logical state, so two identical runs must publish
// byte-identical streams even while the stride itself moves — and the
// stream must record that movement (a trajectory that never leaves the
// base stride would mean the adaptive path went unexercised).
func TestTelemetryAdaptiveFramesDeterministic(t *testing.T) {
	drive := func() ([]byte, map[int]bool) {
		pn := papernets.Figure1()
		s := pn.Scenario.NewSim()
		col := telemetry.NewCollector(pn.Network.NumChannels(), telemetry.Config{
			Stride: 1, FrameEvery: 4,
			Adaptive: true, MaxStride: 8, WindowBytes: 16 << 10,
		})
		var out []byte
		strides := make(map[int]bool)
		col.OnFrame = func(f *telemetry.Frame) {
			strides[f.Stride] = true
			out = f.AppendJSON(out)
			out = append(out, '\n')
		}
		s.SetTelemetry(col)
		if res := s.Run(10_000); res.Result != sim.ResultDelivered {
			t.Fatalf("figure1 must deliver, got %s", res.Result)
		}
		col.Flush()
		return out, strides
	}
	a, stridesA := drive()
	b, _ := drive()
	if len(a) == 0 {
		t.Fatal("no frames published")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("adaptive frame streams differ:\n%s\n---\n%s", a, b)
	}
	if len(stridesA) < 2 {
		t.Fatalf("stride never moved (trajectory %v); the adaptive policy went unexercised", stridesA)
	}
	if !bytes.Contains(a, []byte(`"stride":`)) {
		t.Fatal("frame JSON does not record the stride trajectory")
	}
}

// TestFlightBundleGolden pins flight.jsonl byte for byte to the committed
// fixture that replay's tests parse. The run mirrors the command that
// wrote it:
//
//	wormsim -paper figure2 -telemetry 2 -telemetry-adaptive \
//	  -telemetry-window 32K -flight-recorder DIR
func TestFlightBundleGolden(t *testing.T) {
	pn := papernets.Figure2()
	s := pn.Scenario.NewSim()
	col := telemetry.NewCollector(pn.Network.NumChannels(), telemetry.Config{
		Stride: 2, Adaptive: true, WindowBytes: 32 << 10,
	})
	rec := telemetry.NewFlightRecorder(pn.Network, 0, col)
	s.SetTelemetry(col)
	s.SetTracer(rec)
	if out := s.Run(10_000); out.Result != sim.ResultDeadlock {
		t.Fatalf("result = %s; the Figure 2 configuration must deadlock", out.Result)
	}
	col.Flush()
	dir := t.TempDir()
	if err := rec.Dump(dir, "deadlock"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("internal", "obsv", "telemetry", "testdata", "figure2_flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flight.jsonl differs from the fixture:\n%s\n--- want ---\n%s", got, want)
	}
}
