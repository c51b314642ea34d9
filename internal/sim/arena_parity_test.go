package sim

import (
	"bytes"
	"testing"

	"repro/internal/topology"
)

// Parity harness for the arena-based hot path: a fresh simulator, its
// Clone, a pooled CopyFrom copy, and a Reset-recycled instance must stay
// byte-identical under EncodeTo at every cycle. The scratch arenas are
// per-instance working memory, so no trace of one instance's history may
// leak into another's encoded state.

// ringScenario4 is a 4-node unidirectional ring with four 2-hop messages —
// full cyclic contention, which deadlocks with 1-flit buffers and length 3.
func ringScenario4() Scenario {
	net := topology.New("ring4")
	net.AddNodes(4)
	for i := 0; i < 4; i++ {
		net.AddChannel(topology.NodeID(i), topology.NodeID((i+1)%4), 0, "")
	}
	msgs := make([]MessageSpec, 4)
	for i := range msgs {
		msgs[i] = MessageSpec{
			Src: topology.NodeID(i), Dst: topology.NodeID((i + 2) % 4), Length: 3,
			Path: []topology.ChannelID{topology.ChannelID(i), topology.ChannelID((i + 1) % 4)},
		}
	}
	return Scenario{Name: "ring4", Net: net, Msgs: msgs}
}

// stepAll advances every sim one cycle and asserts their encodings match
// the first one's, byte for byte.
func stepAll(t *testing.T, cycle int, sims map[string]*Sim) {
	t.Helper()
	var ref []byte
	var refName string
	for _, name := range []string{"fresh", "clone", "pooled", "recycled"} {
		s, ok := sims[name]
		if !ok {
			continue
		}
		s.Step()
		var enc []byte
		s.EncodeTo(&enc)
		if ref == nil {
			ref, refName = enc, name
			continue
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("cycle %d: %s encoding diverges from %s:\n%x\n%x", cycle, name, refName, enc, ref)
		}
	}
}

func TestArenaEncodeParityAcrossCopies(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"line", lineScenario()},
		{"ring4-deadlock", ringScenario4()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := tc.sc.NewSim()

			// A recycled instance: run it ahead, reset, rebuild the same
			// message set. Any stale arena stamp or counter would surface
			// as an encoding difference.
			recycled := tc.sc.NewSim()
			recycled.Run(7)
			recycled.Reset()
			for _, m := range tc.sc.Msgs {
				recycled.MustAdd(m)
			}

			sims := map[string]*Sim{"fresh": fresh, "recycled": recycled}
			for cycle := 0; cycle < 3; cycle++ {
				stepAll(t, cycle, sims)
			}

			// Mid-flight, fork a Clone and a pooled CopyFrom and continue
			// all four in lockstep.
			sims["clone"] = fresh.Clone()
			pooled := New(tc.sc.Net, fresh.cfg)
			pooled.Run(2) // dirty the pooled instance's arenas first
			pooled.CopyFrom(fresh)
			sims["pooled"] = pooled
			for cycle := 3; cycle < 20; cycle++ {
				stepAll(t, cycle, sims)
			}

			// Terminal facts must agree too.
			for name, s := range sims {
				if s.AllDelivered() != fresh.AllDelivered() || s.LiveMessages() != fresh.LiveMessages() {
					t.Fatalf("%s: terminal accounting diverges from fresh", name)
				}
			}
		})
	}
}

// TestArenaCountersTrackTerminalStates cross-checks the O(1) liveCount
// and FlitsConsumed accounting against a full scan, through delivery and
// freeze transitions.
func TestArenaCountersTrackTerminalStates(t *testing.T) {
	sc := ringScenario4()
	s := sc.NewSim()
	check := func(when string) {
		t.Helper()
		live := 0
		for id := 0; id < s.NumMessages(); id++ {
			if !s.Delivered(id) {
				live++
			}
		}
		if s.LiveMessages() != live {
			t.Fatalf("%s: LiveMessages() = %d, scan says %d", when, s.LiveMessages(), live)
		}
	}
	check("initial")
	for i := 0; i < 6; i++ {
		s.Step()
		check("stepping")
	}
	s.SetFrozen(1, 2)
	for i := 0; i < 10; i++ {
		s.Step()
		check("frozen countdown")
	}
	s.Run(200)
	check("after run")
	total := 0
	for id := 0; id < s.NumMessages(); id++ {
		total += s.Message(id).Consumed
	}
	if got := int(s.FlitsConsumed()); got != total {
		t.Fatalf("FlitsConsumed() = %d, scan of consumed counts says %d", got, total)
	}
}
