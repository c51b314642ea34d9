package mcheck

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// isolationScenario is a unidirectional 4-ring (channel i runs from node
// i to node i+1) carrying the given one-flit messages.
func isolationScenario(cfg sim.Config, paths ...[]topology.ChannelID) sim.Scenario {
	net := topology.NewRing(4, false)
	sc := sim.Scenario{Name: "isolation", Net: net, Cfg: cfg}
	for _, p := range paths {
		src := net.Channel(p[0]).Src
		dst := net.Channel(p[len(p)-1]).Dst
		sc.Msgs = append(sc.Msgs, sim.MessageSpec{Src: src, Dst: dst, Length: 1, Path: p})
	}
	return sc
}

// isolatedAfter activates the messages in act on the held simulator s,
// plans the cycle and returns the isolation marks.
func isolatedAfter(s *sim.Sim, act ...int) []bool {
	for _, id := range act {
		s.SetHeld(id, false)
	}
	s.Contentions()
	return s.Isolated(nil)
}

// TestIsolationRejectsSharedChannels: the isolation query rejects each of
// the three shapes in which freezing a message could change another
// message's step, and the enumerator then steps the freeze instead of
// assembling it:
//   - a rival requests a channel the message requests;
//   - a message requests the message's predicted-releasing tail channel
//     (same-cycle handoff);
//   - two frozen messages contend with each other.
//
// A message on a channel nobody else touches is isolated, and freezing it
// alone is assembled.
func TestIsolationRejectsSharedChannels(t *testing.T) {
	t.Run("rival", func(t *testing.T) {
		// Messages 0 and 1 both enter on channel 0; message 2 is alone on
		// channel 2.
		sc := isolationScenario(sim.Config{}, []topology.ChannelID{0}, []topology.ChannelID{0}, []topology.ChannelID{2})
		got := isolatedAfter(newHeldSim(sc), 0, 1, 2)
		if want := []bool{false, false, true}; !slices.Equal(got, want) {
			t.Fatalf("isolated %v, want %v", got, want)
		}
	})
	t.Run("releasing-tail", func(t *testing.T) {
		// Message 0 (channels 0, 1) has injected its one flit into channel
		// 0; its tail leaves channel 0 this cycle, and message 1 enters on
		// channel 0. With same-cycle handoff message 1 requests the
		// releasing channel, so message 0 is not isolated; in strict mode
		// it cannot, and message 0 is.
		for _, handoff := range []bool{true, false} {
			sc := isolationScenario(sim.Config{SameCycleHandoff: handoff}, []topology.ChannelID{0, 1}, []topology.ChannelID{0})
			s := newHeldSim(sc)
			s.SetHeld(0, false)
			s.Step()
			if s.Owner(0) != 0 {
				t.Fatal("test bug: message 0 did not inject")
			}
			got := isolatedAfter(s, 1)
			if want := []bool{!handoff, true}; !slices.Equal(got, want) {
				t.Fatalf("handoff=%v: isolated %v, want %v", handoff, got, want)
			}
		}
	})
	t.Run("frozen-rivals", func(t *testing.T) {
		sc := isolationScenario(sim.Config{}, []topology.ChannelID{0}, []topology.ChannelID{0}, []topology.ChannelID{2})
		s := newHeldSim(sc)
		enum := newDecisionEnum(s)
		var rivals, alone bool
		enum.forEach(s, 2, enumConfig{}, nil, func(d *Decision) bool {
			if len(d.Activate) != 3 {
				return true
			}
			frozenRival := slices.Contains(d.Freeze, 0) || slices.Contains(d.Freeze, 1)
			if frozenRival && enum.kind == succAssembled {
				t.Fatalf("freezing %v, which contend for channel 0, was assembled", d.Freeze)
			}
			rivals = rivals || slices.Equal(d.Freeze, []int{0, 1})
			if slices.Equal(d.Freeze, []int{2}) {
				alone = true
				if enum.kind != succAssembled {
					t.Fatalf("freezing the isolated message 2 was stepped (kind %d)", enum.kind)
				}
			}
			return true
		})
		if !rivals || !alone {
			t.Fatalf("enumeration missed a freeze subset: {0,1} seen %v, {2} seen %v", rivals, alone)
		}
	})
}
