package sim

import "repro/internal/topology"

// Arbiter resolves simultaneous requests by several message headers for the
// same free channel (assumption 5). Pick receives the contending message
// IDs sorted ascending and must return one of them.
type Arbiter interface {
	Pick(s *Sim, c topology.ChannelID, contenders []int) int
}

// ArbiterCloner is the optional interface stateful arbiters implement so
// that Clone and CopyFrom can give each simulator copy its own arbiter
// state. Without it, Clone shares the arbiter value between copies — safe
// only for stateless arbiters. The search engines in internal/mcheck
// refuse arbiters that implement neither ArbiterCloner nor
// StatelessArbiter, because silently shared arbiter state would corrupt a
// branching state-space exploration.
type ArbiterCloner interface {
	Arbiter
	// CloneArbiter returns an independent copy carrying the same state.
	CloneArbiter() Arbiter
}

// StatelessArbiter marks arbiters whose Pick never mutates the arbiter
// value itself (it may still read simulator state, like FIFOArbiter).
// Stateless arbiters are safe to share across clones and across the
// parallel workers of the search engines. All built-in arbiters implement
// it.
type StatelessArbiter interface {
	Arbiter
	// StatelessArbiter is a marker method; implementations do nothing.
	StatelessArbiter()
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
// messages first.
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

// LowestIDArbiter always grants the contender with the smallest message ID.
// Deterministic and stateless; convenient for reproducible experiments.
type LowestIDArbiter struct{}

// Pick implements Arbiter.
func (LowestIDArbiter) Pick(_ *Sim, _ topology.ChannelID, contenders []int) int {
	return contenders[0]
}

// StatelessArbiter marks FIFOArbiter safe to share across simulator clones.
func (FIFOArbiter) StatelessArbiter() {}

// StatelessArbiter marks PriorityArbiter safe to share across simulator
// clones (Order is read-only).
func (PriorityArbiter) StatelessArbiter() {}

// StatelessArbiter marks LowestIDArbiter safe to share across simulator
// clones.
func (LowestIDArbiter) StatelessArbiter() {}
