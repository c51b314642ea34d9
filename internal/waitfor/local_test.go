package waitfor

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// twoRingsSim builds and deadlocks two disjoint 4-rings (the fixture from
// TestFindWithTwoDisjointCycles): messages 0..3 cycle on channels 0..3,
// messages 4..7 on channels 4..7.
func twoRingsSim(t *testing.T) *sim.Sim {
	t.Helper()
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
		t.Fatalf("setup: result = %v", out.Result)
	}
	return s
}

// cycles collects every cycle Build(s).Cycles enumerates, in order.
func cycles(s *sim.Sim) [][]int {
	var out [][]int
	Build(s).Cycles(func(c []int) bool {
		out = append(out, append([]int(nil), c...))
		return true
	})
	return out
}

func TestCyclesTwoDisjointCycles(t *testing.T) {
	s := twoRingsSim(t)
	if got := fmt.Sprint(cycles(s)); got != "[[0 1 2 3] [4 5 6 7]]" {
		t.Fatalf("cycles = %v; want the two disjoint rings in chase order", got)
	}
	n := 0
	Build(s).Cycles(func([]int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("visit returned false but the enumeration went on (%d cycles)", n)
	}
}

// TestFindAndFindLocalOrderCycles: Find takes the first cycle the chase
// from ascending message IDs closes, starting where the chase entered it;
// FindLocal takes the cycle with the smallest member, starting there.
// Message 0 chains into ring B, so the two pick different rings.
func TestFindAndFindLocalOrderCycles(t *testing.T) {
	s := twoRingsChain(nil)
	if out := s.Run(100); out.Result != sim.ResultDeadlock {
		t.Fatalf("setup: result = %v", out.Result)
	}
	if d := Find(s); d == nil || fmt.Sprint(d.Cycle) != "[6 7 8 5]" {
		t.Fatalf("Find = %v; want ring B entered at m6", d)
	}
	if ld := FindLocal(s); ld == nil || fmt.Sprint(ld.Cycle) != "[1 2 3 4]" {
		t.Fatalf("FindLocal = %v; want ring A from m1", ld)
	}
}

// TestFindLocalIgnoresAdaptiveCycle: a Definition 6 cycle through an
// adaptive member is not *certain* — the member may later route around —
// so FindLocal must not report it even though Find does.
func TestFindLocalIgnoresAdaptiveCycle(t *testing.T) {
	net := topology.NewRing(4, false)
	s := sim.New(net, sim.Config{})
	for i := 0; i < 3; i++ {
		s.MustAdd(sim.MessageSpec{
			Src: topology.NodeID(i), Dst: topology.NodeID((i + 2) % 4),
			Length: 2,
			Path:   []topology.ChannelID{topology.ChannelID(i), topology.ChannelID((i + 1) % 4)},
		})
	}
	// The fourth member routes "adaptively" with a single candidate per
	// hop, reproducing the ring deadlock exactly.
	s.MustAdd(sim.MessageSpec{
		Src: 3, Dst: 1, Length: 2,
		Route: func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
			switch at {
			case 3:
				return []topology.ChannelID{3}
			case 0:
				return []topology.ChannelID{0}
			}
			return nil
		},
	})
	if out := s.Run(100); out.Result != sim.ResultDeadlock {
		t.Fatalf("setup: result = %v", out.Result)
	}
	if d := Find(s); d == nil {
		t.Fatal("setup: Find should still report the cycle")
	}
	if ld := FindLocal(s); ld != nil {
		t.Fatalf("FindLocal = %v; an adaptive member makes the cycle uncertain", ld)
	}
}

// TestLocalDeadlockLiveSetClassification: outside messages whose remaining
// route needs a blocked channel are starving, not live; disjoint traffic
// is live.
func TestLocalDeadlockLiveSetClassification(t *testing.T) {
	net := topology.New("ringplus")
	net.AddNodes(6)
	var chans [4]topology.ChannelID
	for i := 0; i < 4; i++ {
		chans[i] = net.AddChannel(topology.NodeID(i), topology.NodeID((i+1)%4), 0, "")
	}
	side := net.AddChannel(4, 5, 0, "side")
	s := sim.New(net, sim.Config{})
	for i := 0; i < 4; i++ {
		s.MustAdd(sim.MessageSpec{
			Src: topology.NodeID(i), Dst: topology.NodeID((i + 2) % 4),
			Length: 2,
			Path:   []topology.ChannelID{chans[i], chans[(i+1)%4]},
		})
	}
	// Chained behind the cycle: needs blocked channel 0.
	chained := s.MustAdd(sim.MessageSpec{Src: 0, Dst: 1, Length: 1,
		Path: []topology.ChannelID{chans[0]}, InjectAt: 50})
	// Disjoint: never touches the ring.
	free := s.MustAdd(sim.MessageSpec{Src: 4, Dst: 5, Length: 1,
		Path: []topology.ChannelID{side}, InjectAt: 50})
	// Step until the ring cycle closes; the late injections keep both
	// outside messages pending so the classification is observable.
	for i := 0; i < 10; i++ {
		s.Step()
	}
	ld := FindLocal(s)
	if ld == nil {
		t.Fatal("no local deadlock found")
	}
	if got := fmt.Sprint(ld.Blocked); got != "[0 1 2 3]" {
		t.Fatalf("blocked = %v; want the ring channels", got)
	}
	if got := fmt.Sprint(ld.Live); got != fmt.Sprint([]int{free}) {
		t.Fatalf("live = %v; want only the disjoint message %d (not chained %d)", got, free, chained)
	}
	if err := VerifyLocal(s, ld); err != nil {
		t.Fatalf("VerifyLocal: %v", err)
	}
	if !strings.Contains(ld.String(), "blocking channels") {
		t.Fatalf("String = %q", ld.String())
	}
}

func TestVerifyLocalRejectsTamperedBlockedSet(t *testing.T) {
	s := twoRingsSim(t)
	ld := FindLocal(s)
	if ld == nil {
		t.Fatal("setup: no local deadlock")
	}
	if err := VerifyLocal(s, ld); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	bad := *ld
	bad.Blocked = append([]topology.ChannelID(nil), ld.Blocked...)
	bad.Blocked[0] = 7
	if err := VerifyLocal(s, &bad); err == nil {
		t.Fatal("VerifyLocal should reject a tampered blocked set")
	}
	if err := VerifyLocal(s, nil); err == nil {
		t.Fatal("VerifyLocal should reject nil")
	}
}
