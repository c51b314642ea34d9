package repro

// End-to-end exercise of the telemetry collector on the paper networks:
// Figure 1's false resource cycle (which delivers, per Theorem 1) pins
// the frame stream's determinism, and Figure 2, the modified cyclic
// configuration whose resource cycle is real, checks that the
// congestion the collector measures sits on the deadlock cycle.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/obsv/telemetry"
	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/waitfor"
)

// TestTelemetryFigure2HottestOnDeadlockCycle: once Figure 2 deadlocks,
// the collector's hottest channel is held by a member of the wait-for
// cycle. The channels both held and waited on dominate the congestion
// totals once the network wedges.
func TestTelemetryFigure2HottestOnDeadlockCycle(t *testing.T) {
	pn := papernets.Figure2()
	s := pn.Scenario.NewSim()
	col := telemetry.NewCollector(pn.Network.NumChannels(), telemetry.Config{Stride: 1, FrameEvery: 4})
	s.SetTelemetry(col)
	if out := s.Run(10_000); out.Result != sim.ResultDeadlock {
		t.Fatalf("result = %s; the Figure 2 configuration must deadlock", out.Result)
	}
	col.Flush()
	if col.FramesClosed() < 1 {
		t.Fatal("collector closed no telemetry frames")
	}
	d := waitfor.Find(s)
	if d == nil {
		t.Fatal("deadlocked state has no wait-for cycle")
	}
	hot, _, ok := col.Hottest()
	if !ok {
		t.Fatal("collector sampled no congestion")
	}
	holder := s.Owner(topology.ChannelID(hot))
	if !slices.Contains(d.Cycle, holder) {
		t.Fatalf("hottest channel c%d is held by m%d, not a member of the deadlock cycle %v", hot, holder, d.Cycle)
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
