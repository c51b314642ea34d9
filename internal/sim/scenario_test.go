package sim

import (
	"testing"

	"repro/internal/topology"
)

func lineScenario() Scenario {
	net := topology.New("line")
	net.AddNodes(3)
	net.AddChannel(0, 1, 0, "")
	net.AddChannel(1, 2, 0, "")
	net.AddChannel(2, 0, 0, "back")
	return Scenario{
		Name: "line",
		Net:  net,
		Msgs: []MessageSpec{
			{Src: 0, Dst: 2, Length: 2, Path: []topology.ChannelID{0, 1}},
			{Src: 1, Dst: 2, Length: 3, Path: []topology.ChannelID{1}, InjectAt: 4},
		},
	}
}

func TestScenarioNewSim(t *testing.T) {
	sc := lineScenario()
	s := sc.NewSim()
	if s.NumMessages() != 2 {
		t.Fatalf("messages = %d", s.NumMessages())
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %d", s.Now())
	}
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
}

func TestScenarioWithLengths(t *testing.T) {
	sc := lineScenario()
	mod := sc.WithLengths([]int{5, 0, 9}) // 0 keeps, extra index ignored
	if mod.Msgs[0].Length != 5 || mod.Msgs[1].Length != 3 {
		t.Fatalf("lengths = %d, %d", mod.Msgs[0].Length, mod.Msgs[1].Length)
	}
	if sc.Msgs[0].Length != 2 {
		t.Fatal("original scenario mutated")
	}
}

func TestScenarioWithInjectTimes(t *testing.T) {
	sc := lineScenario()
	mod := sc.WithInjectTimes([]int{7})
	if mod.Msgs[0].InjectAt != 7 || mod.Msgs[1].InjectAt != 4 {
		t.Fatalf("inject times = %d, %d", mod.Msgs[0].InjectAt, mod.Msgs[1].InjectAt)
	}
	if sc.Msgs[0].InjectAt != 0 {
		t.Fatal("original scenario mutated")
	}
}

func TestScenarioWithBufferDepth(t *testing.T) {
	sc := lineScenario().WithBufferDepth(3)
	if sc.NewSim().BufferDepth() != 3 {
		t.Fatal("buffer depth not applied")
	}
}

func TestCanAdvanceDirect(t *testing.T) {
	canAdvance := func(s *Sim, id int) bool { return s.CanAdvanceAll(nil)[id] }
	sc := lineScenario()
	s := sc.NewSim()
	// Before stepping: message 0 can inject (channel 0 free); message 1 is
	// not ready yet.
	if !canAdvance(s, 0) {
		t.Fatal("message 0 should be able to inject")
	}
	if canAdvance(s, 1) {
		t.Fatal("message 1 is not ready")
	}
	// Freeze message 0: cannot advance.
	s.SetFrozen(0, 1)
	if canAdvance(s, 0) {
		t.Fatal("frozen message cannot advance")
	}
	s.SetFrozen(0, 0)
	// Hold it: cannot advance either.
	s.SetHeld(0, true)
	if canAdvance(s, 0) {
		t.Fatal("held message cannot advance")
	}
	if !s.Held(0) {
		t.Fatal("Held getter wrong")
	}
	s.SetHeld(0, false)
	// Block channel 0 with the other message: message 0 stuck at injection.
	s2 := sc.NewSim()
	s2.Step() // m0 header -> c0
	if !canAdvance(s2, 0) {
		t.Fatal("in-flight message with free next channel advances")
	}
}

func TestAcquirableCandidatesAndIsAdaptive(t *testing.T) {
	sc := lineScenario()
	s := sc.NewSim()
	if s.IsAdaptive(0) {
		t.Fatal("oblivious message reported adaptive")
	}
	cands := s.AcquirableCandidates(0)
	if len(cands) != 1 || cands[0] != 0 {
		t.Fatalf("candidates = %v; want [0]", cands)
	}
	// Occupy channel 0: no acquirable candidates for a would-be injector.
	s.Step() // msg0 into c0
	if got := s.AcquirableCandidates(0); len(got) != 0 {
		// msg0 now wants c1 (free): it should list c1 instead.
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("candidates after injection = %v", got)
		}
	}
}

func TestSetMaskOnObliviousIsHarmless(t *testing.T) {
	sc := lineScenario()
	s := sc.NewSim()
	s.SetMask(0, 1) // oblivious: ignored
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
}
