package sim

import "repro/internal/topology"

// Arbiter resolves simultaneous requests by several message headers for the
// same free channel (assumption 5). Pick receives the contending message
// IDs sorted ascending and must return one of them. Pick must not modify
// the arbiter: Clone and CopyFrom share the arbiter value between
// simulator copies, and the search engines' parallel workers share it
// too. It may read the simulator, as FIFOArbiter does.
type Arbiter interface {
	Pick(s *Sim, c topology.ChannelID, contenders []int) int
}

// FIFOArbiter grants the channel to the message that has been waiting for
// an output channel the longest (ties broken by lowest message ID). A
// message that requests a channel the same cycle it becomes eligible has
// waiting time zero, so established waiters always beat newcomers: the
// policy is starvation-free.
type FIFOArbiter struct{}

// Pick implements Arbiter.
func (FIFOArbiter) Pick(s *Sim, _ topology.ChannelID, contenders []int) int {
	best := contenders[0]
	bestSince := s.msgs[best].waitingSince
	for _, id := range contenders[1:] {
		since := s.msgs[id].waitingSince
		// -1 means "not waiting before this cycle": treat as now.
		if since < 0 {
			since = s.now
		}
		cur := bestSince
		if cur < 0 {
			cur = s.now
		}
		if since < cur {
			best, bestSince = id, s.msgs[id].waitingSince
		}
	}
	return best
}

// PriorityArbiter grants contested channels by a fixed message-ID priority:
// the contender appearing earliest in Order wins; messages absent from
// Order lose to every listed one and tie-break by lowest ID. This realizes
// the paper's Section 3 adversarial assumption — "the message that can lead
// to a deadlock acquires the channel" — when Order lists the deadlock-prone
// messages first. The zero value grants the lowest message ID.
type PriorityArbiter struct {
	Order []int
}

// Pick implements Arbiter.
func (a PriorityArbiter) Pick(_ *Sim, _ topology.ChannelID, contenders []int) int {
	rank := func(id int) int {
		for i, v := range a.Order {
			if v == id {
				return i
			}
		}
		return len(a.Order) + id
	}
	best := contenders[0]
	for _, id := range contenders[1:] {
		if rank(id) < rank(best) {
			best = id
		}
	}
	return best
}
