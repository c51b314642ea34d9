package waitfor

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Local deadlock detection, after Stramaglia, Keiren & Zantema: a local
// deadlock is a permanently blocked subnetwork inside a network that as a
// whole stays live. The blocked core is a Definition 6 cycle whose members
// can never release what the next member waits for; the channels that
// cycle pins down are dead forever, while traffic routed away from them
// still flows.

// LocalDeadlock is a local-deadlock witness: a Definition 6 cycle that is
// provably permanent — every member is an in-network oblivious message, so
// no member can ever release the channel its predecessor waits for —
// together with the subnetwork it kills and the traffic that survives.
type LocalDeadlock struct {
	Deadlock
	// Blocked is the minimal blocked subnetwork: every channel owned by a
	// cycle member, ascending. No flit will ever traverse one of these
	// channels again.
	Blocked []topology.ChannelID
	// Live lists the non-terminal messages outside the cycle whose
	// remaining route avoids every Blocked channel — traffic the network
	// can still deliver. Adaptive outsiders are counted optimistically
	// (they may route around the dead set). A non-empty Live set is what
	// makes the deadlock local: the network as a whole stays live.
	Live []int
}

// mayCycleLocally is FindLocal's screen, run before it builds the
// wait-for graph: a certain cycle has at least two members (a message
// never waits on itself), and each member is an in-network oblivious
// message waiting on a channel that another such message owns. Fewer than
// two such waiters rules every certain cycle out. The liveness search
// asks FindLocal about every state it expands, and most have no waiter at
// all.
func mayCycleLocally(s *sim.Sim) bool {
	n := 0
	for id := 0; id < s.NumMessages(); id++ {
		if !s.InNetwork(id) || s.IsAdaptive(id) {
			continue
		}
		if _, owner, ok := s.WaitsFor(id); ok && !s.IsAdaptive(owner) {
			if n++; n == 2 {
				return true
			}
		}
	}
	return false
}

// String renders the cycle plus the channels it permanently blocks.
func (ld *LocalDeadlock) String() string {
	if ld == nil {
		return "<no local deadlock>"
	}
	return fmt.Sprintf("%s blocking channels %v (live: %v)", ld.Deadlock.String(), ld.Blocked, ld.Live)
}

// FindLocal looks for a permanently blocked Definition 6 cycle in the
// simulator's current state and, when one exists, reports the blocked
// subnetwork and the surviving traffic. Unlike Find it returns only
// *certain* cycles — every member in-network and oblivious. A cycle
// through an adaptive member may dissolve when that member routes around
// the contention. Of several certain cycles it returns the one with the
// smallest member, starting at that member.
func FindLocal(s *sim.Sim) *LocalDeadlock {
	if !mayCycleLocally(s) {
		return nil
	}
	g := Build(s)
	first := -1
	g.Cycles(func(cycle []int) bool {
		low := cycle[0]
		for _, id := range cycle {
			if !s.InNetwork(id) || s.IsAdaptive(id) {
				return true
			}
			low = min(low, id)
		}
		if first < 0 || low < first {
			first = low
		}
		return true
	})
	if first < 0 {
		return nil
	}
	cycle := []int{first}
	for _, id, _ := g.WaitsFor(first); id != first; _, id, _ = g.WaitsFor(id) {
		cycle = append(cycle, id)
	}
	ld := &LocalDeadlock{Deadlock: *newDeadlock(g, cycle)}
	member := make([]bool, s.NumMessages())
	for _, id := range cycle {
		member[id] = true
	}
	// blocked reports whether a cycle member owns c: no flit will ever
	// traverse it again.
	blocked := func(c topology.ChannelID) bool {
		owner := s.Owner(c)
		return owner >= 0 && member[owner]
	}
	for c := 0; c < s.Network().NumChannels(); c++ {
		if blocked(topology.ChannelID(c)) {
			ld.Blocked = append(ld.Blocked, topology.ChannelID(c))
		}
	}
	for id := 0; id < s.NumMessages(); id++ {
		if member[id] {
			continue
		}
		mv := s.Message(id)
		if mv.Delivered {
			continue
		}
		if s.IsAdaptive(id) {
			ld.Live = append(ld.Live, id)
			continue
		}
		// The oblivious remainder of the route: everything past the head.
		h := -1
		for i := len(mv.Queued) - 1; i >= 0; i-- {
			if mv.Queued[i] > 0 {
				h = i
				break
			}
		}
		live := true
		for _, c := range mv.Path[h+1:] {
			if blocked(c) {
				live = false
				break
			}
		}
		if live {
			ld.Live = append(ld.Live, id)
		}
	}
	return ld
}

// VerifyLocal checks a local-deadlock witness against the simulator state:
// the embedded Definition 6 clauses, the certainty conditions (oblivious
// in-network members), and that Blocked is exactly the set of channels the
// cycle owns. It returns an error describing the first violated clause.
func VerifyLocal(s *sim.Sim, ld *LocalDeadlock) error {
	if ld == nil {
		return fmt.Errorf("waitfor: empty local-deadlock configuration")
	}
	if err := Verify(s, &ld.Deadlock); err != nil {
		return err
	}
	member := make(map[int]bool, len(ld.Cycle))
	for _, id := range ld.Cycle {
		if s.IsAdaptive(id) {
			return fmt.Errorf("waitfor: member m%d is adaptive; the cycle is not certain", id)
		}
		member[id] = true
	}
	var owned []topology.ChannelID
	for c := 0; c < s.Network().NumChannels(); c++ {
		if member[s.Owner(topology.ChannelID(c))] {
			owned = append(owned, topology.ChannelID(c))
		}
	}
	if len(owned) != len(ld.Blocked) {
		return fmt.Errorf("waitfor: blocked set %v does not match channels owned by the cycle %v", ld.Blocked, owned)
	}
	for i, c := range owned {
		if ld.Blocked[i] != c {
			return fmt.Errorf("waitfor: blocked set %v does not match channels owned by the cycle %v", ld.Blocked, owned)
		}
	}
	return nil
}
