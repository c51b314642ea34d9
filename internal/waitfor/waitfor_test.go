package waitfor

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// ringScenario is the canonical 4-node unidirectional ring deadlock.
func ringScenario(length int) sim.Scenario {
	net := topology.NewRing(4, false)
	sc := sim.Scenario{Name: "ring4", Net: net}
	for i := 0; i < 4; i++ {
		sc.Msgs = append(sc.Msgs, sim.MessageSpec{
			Src: topology.NodeID(i), Dst: topology.NodeID((i + 2) % 4),
			Length: length,
			Path:   []topology.ChannelID{topology.ChannelID(i), topology.ChannelID((i + 1) % 4)},
		})
	}
	return sc
}

func TestFindRingDeadlock(t *testing.T) {
	s := ringScenario(2).NewSim()
	out := s.Run(100)
	if out.Result != sim.ResultDeadlock {
		t.Fatalf("result = %v", out.Result)
	}
	d := Find(s)
	if d == nil {
		t.Fatal("deadlock cycle not found")
	}
	if len(d.Cycle) != 4 {
		t.Fatalf("cycle = %v; want all four messages", d.Cycle)
	}
	if err := Verify(s, d); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !strings.Contains(d.String(), "->") {
		t.Fatalf("String = %q", d.String())
	}
}

func TestNoDeadlockInFreeFlow(t *testing.T) {
	net := topology.NewRing(4, false)
	s := sim.New(net, sim.Config{})
	s.MustAdd(sim.MessageSpec{Src: 0, Dst: 2, Length: 2,
		Path: []topology.ChannelID{0, 1}})
	s.Step()
	if d := Find(s); d != nil {
		t.Fatalf("unexpected deadlock: %v", d)
	}
	if edges := buildEdges(s); edges != "" {
		t.Fatalf("edges = %v; want none", edges)
	}
}

func TestInjectionBlockedMessageNotInCycle(t *testing.T) {
	// Deadlocked ring plus a fifth message blocked at injection behind the
	// cycle: it must appear in the graph but not in the Definition 6 cycle.
	sc := ringScenario(2)
	sc.Msgs = append(sc.Msgs, sim.MessageSpec{
		Src: 0, Dst: 1, Length: 1,
		Path:     []topology.ChannelID{0},
		InjectAt: 1,
	})
	s := sc.NewSim()
	out := s.Run(100)
	if out.Result != sim.ResultDeadlock {
		t.Fatalf("result = %v", out.Result)
	}
	if _, _, ok := Build(s).WaitsFor(4); !ok {
		t.Fatal("injection-blocked message should wait in the graph")
	}
	d := Find(s)
	if d == nil {
		t.Fatal("cycle not found")
	}
	for _, id := range d.Cycle {
		if id == 4 {
			t.Fatal("injection-blocked message must not be a cycle member")
		}
	}
}

func TestVerifyRejectsBogusConfigurations(t *testing.T) {
	s := ringScenario(2).NewSim()
	s.Run(100)
	good := Find(s)
	if good == nil {
		t.Fatal("setup: no deadlock")
	}
	// Wrong channel.
	bad := &Deadlock{Cycle: append([]int(nil), good.Cycle...), Channels: append([]topology.ChannelID(nil), good.Channels...)}
	bad.Channels[0] = 99
	if err := Verify(s, bad); err == nil {
		t.Fatal("Verify should reject a wrong channel")
	}
	// Wrong successor order.
	bad2 := &Deadlock{Cycle: []int{good.Cycle[0], good.Cycle[2], good.Cycle[1], good.Cycle[3]},
		Channels: append([]topology.ChannelID(nil), good.Channels...)}
	if err := Verify(s, bad2); err == nil {
		t.Fatal("Verify should reject a scrambled cycle")
	}
	// Empty.
	if err := Verify(s, nil); err == nil {
		t.Fatal("Verify should reject nil")
	}
}

func TestVerifyRejectsUnblockedMember(t *testing.T) {
	net := topology.NewRing(4, false)
	s := sim.New(net, sim.Config{})
	a := s.MustAdd(sim.MessageSpec{Src: 0, Dst: 2, Length: 2, Path: []topology.ChannelID{0, 1}})
	b := s.MustAdd(sim.MessageSpec{Src: 2, Dst: 0, Length: 2, Path: []topology.ChannelID{2, 3}})
	s.Step()
	bogus := &Deadlock{Cycle: []int{a, b}, Channels: []topology.ChannelID{1, 3}}
	if err := Verify(s, bogus); err == nil {
		t.Fatal("Verify should reject non-blocked members")
	}
}

func TestChainIntoCycleFound(t *testing.T) {
	// A message outside the cycle waiting on a cycle member: Find must
	// still return the core cycle, not include the chain.
	sc := ringScenario(2)
	// Fifth message wants channel 1 as its first hop (source node 1).
	sc.Msgs = append(sc.Msgs, sim.MessageSpec{
		Src: 1, Dst: 3, Length: 1,
		Path:     []topology.ChannelID{1, 2},
		InjectAt: 2,
	})
	s := sc.NewSim()
	if out := s.Run(100); out.Result != sim.ResultDeadlock {
		t.Fatalf("result = %v", out.Result)
	}
	d := Find(s)
	if d == nil || len(d.Cycle) != 4 {
		t.Fatalf("deadlock = %v; want the 4-cycle", d)
	}
	if err := Verify(s, d); err != nil {
		t.Fatal(err)
	}
}

func TestNilDeadlockString(t *testing.T) {
	var d *Deadlock
	if d.String() != "<no deadlock>" {
		t.Fatalf("String = %q", d.String())
	}
}

func TestFindWithTwoDisjointCycles(t *testing.T) {
	// Two disjoint 4-ring deadlocks in one network: Find returns one valid
	// cycle; the chase must mark finished chains correctly.
	net := topology.New("tworings")
	net.AddNodes(8)
	var chans [8]topology.ChannelID
	for r := 0; r < 2; r++ {
		base := topology.NodeID(4 * r)
		for i := 0; i < 4; i++ {
			chans[4*r+i] = net.AddChannel(base+topology.NodeID(i), base+topology.NodeID((i+1)%4), 0, "")
		}
	}
	s := sim.New(net, sim.Config{})
	for r := 0; r < 2; r++ {
		base := topology.NodeID(4 * r)
		for i := 0; i < 4; i++ {
			s.MustAdd(sim.MessageSpec{
				Src: base + topology.NodeID(i), Dst: base + topology.NodeID((i+2)%4),
				Length: 2,
				Path:   []topology.ChannelID{chans[4*r+i], chans[4*r+(i+1)%4]},
			})
		}
	}
	if out := s.Run(100); out.Result != sim.ResultDeadlock {
		t.Fatalf("result = %v", out.Result)
	}
	d := Find(s)
	if d == nil || len(d.Cycle) != 4 {
		t.Fatalf("deadlock = %v", d)
	}
	if err := Verify(s, d); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGraphWaitsOnAbsent(t *testing.T) {
	net := topology.NewRing(4, false)
	s := sim.New(net, sim.Config{})
	s.MustAdd(sim.MessageSpec{Src: 0, Dst: 1, Length: 1, Path: []topology.ChannelID{0}})
	if _, _, ok := Build(s).WaitsFor(0); ok {
		t.Fatal("unblocked message should have no wait edge")
	}
}
