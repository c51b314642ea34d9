// Package waitfor builds the message wait-for graph (obsv.WaitGraph) of a
// simulator state and extracts Definition 6 deadlock configurations.
//
// In a wormhole network each blocked message waits for exactly one channel
// — the next channel on its path — so the wait-for relation restricted to
// blocked messages is a functional graph: cycle detection is a pointer
// chase. A cycle in which every member has acquired at least one channel
// and waits on a channel owned by the next member is the cyclic deadlock
// configuration of Schwiebert's Definition 6 (and the packet wait-for cycle
// of Dally & Aoki).
package waitfor

import (
	"fmt"
	"strings"

	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Build captures the wait-for graph of the simulator's current state.
// Messages blocked at injection (holding no channel yet) are included as
// graph edges — they wait like any other message — but are never members
// of a Definition 6 cycle, because a cycle member must hold a channel.
func Build(s *sim.Sim) *obsv.WaitGraph {
	g := &obsv.WaitGraph{}
	g.Reset(s.NumMessages())
	for id := 0; id < s.NumMessages(); id++ {
		if ch, owner, ok := s.WaitsFor(id); ok {
			g.Wait(id, ch, owner)
		}
	}
	return g
}

// Deadlock is a Definition 6 deadlock configuration: a cycle of messages
// each blocked on a channel held by the next member.
type Deadlock struct {
	// Cycle lists the member message IDs in cycle order: Cycle[i] waits
	// for Channels[i], which is held by Cycle[(i+1) % len].
	Cycle    []int
	Channels []topology.ChannelID
}

// String renders the deadlock cycle.
func (d *Deadlock) String() string {
	if d == nil {
		return "<no deadlock>"
	}
	var b strings.Builder
	for i, m := range d.Cycle {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "m%d(waits c%d)", m, d.Channels[i])
	}
	return b.String()
}

// Find looks for a Definition 6 deadlock cycle in the simulator's current
// state. It returns nil when none exists. The cycle it returns consists
// only of messages that have acquired at least one channel (in-network);
// injection-blocked messages may chain into a cycle but cannot belong to
// one, since the channel they would "hold" does not exist. Of several
// cycles it returns the first the graph's chase from ascending message
// IDs closes, starting where the chase entered it.
func Find(s *sim.Sim) *Deadlock {
	g := Build(s)
	var d *Deadlock
	g.Cycles(func(cycle []int) bool {
		for _, id := range cycle {
			if !s.InNetwork(id) {
				return true
			}
		}
		d = newDeadlock(g, cycle)
		return false
	})
	return d
}

// newDeadlock copies a cycle of g and the channels its members wait for.
func newDeadlock(g *obsv.WaitGraph, cycle []int) *Deadlock {
	d := &Deadlock{
		Cycle:    append([]int(nil), cycle...),
		Channels: make([]topology.ChannelID, len(cycle)),
	}
	for i, id := range cycle {
		d.Channels[i], _, _ = g.WaitsFor(id)
	}
	return d
}

// Verify checks the structural clauses of Definition 6 against the
// simulator state, returning an error describing the first violated clause.
// It is used to validate deadlock witnesses produced by searches.
func Verify(s *sim.Sim, d *Deadlock) error {
	if d == nil || len(d.Cycle) == 0 {
		return fmt.Errorf("waitfor: empty deadlock configuration")
	}
	for i, id := range d.Cycle {
		mv := s.Message(id)
		if mv.Delivered {
			return fmt.Errorf("waitfor: member m%d is delivered", id)
		}
		if mv.HeaderConsumed {
			return fmt.Errorf("waitfor: member m%d has its header at the destination", id)
		}
		if !mv.InNetwork {
			return fmt.Errorf("waitfor: member m%d holds no channel", id)
		}
		ch, owner, ok := s.WaitsFor(id)
		if !ok {
			return fmt.Errorf("waitfor: member m%d is not blocked", id)
		}
		if ch != d.Channels[i] {
			return fmt.Errorf("waitfor: member m%d waits on c%d, configuration claims c%d", id, ch, d.Channels[i])
		}
		next := d.Cycle[(i+1)%len(d.Cycle)]
		if owner != next {
			return fmt.Errorf("waitfor: member m%d's wanted channel c%d is held by m%d, not cycle successor m%d", id, ch, owner, next)
		}
	}
	return nil
}
