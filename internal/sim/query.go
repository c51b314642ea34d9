package sim

import "repro/internal/topology"

// Lightweight per-message state queries for the search engines. Message
// returns a MsgView whose Queued/Path slices are defensive copies; the hot
// paths of the model checker only need these scalar facts, so they get
// allocation-free accessors.

// Delivered reports whether message id has been fully consumed at its
// destination.
func (s *Sim) Delivered(id int) bool { return s.msgs[id].delivered() }

// InNetwork reports whether message id currently holds flits in the
// network (injected but not yet fully consumed).
func (s *Sim) InNetwork(id int) bool { return s.msgs[id].inNetwork() }

// PathChannel returns the i-th channel of message id's materialized
// route. For an oblivious message the route is its full fixed path; for
// an adaptive one it is the prefix acquired so far. The search engine's
// partial-order filter uses PathChannel(id, 0) to identify the channel
// an uninjected oblivious message must win to enter the network.
func (s *Sim) PathChannel(id, i int) topology.ChannelID { return s.path(&s.msgs[id])[i] }

// Delivering reports whether message id's header has reached the
// destination and consumption has begun or could begin immediately: the
// header is consumed, or flits are buffered on the last channel of its
// materialized route. The Section 6 clock-skew adversary may not stall
// such messages (destination processors consume promptly).
func (s *Sim) Delivering(id int) bool {
	m := &s.msgs[id]
	if m.headerConsumed {
		return true
	}
	return m.n > 0 && s.flits[m.off+m.n-1] > 0
}

// Progress returns a monotone per-message progress counter derived purely
// from encoded state: it strictly increases whenever message id advances
// toward delivery — a flit injected, a flit moved one buffer forward, a
// flit consumed, or (adaptively) the materialized route extended — and is
// unchanged otherwise. Two states with equal encodings have equal
// Progress, so the liveness search can assert non-progress across a lasso
// loop by comparing this one integer.
//
// Monotonicity: a flit at queue position i carries weight i+1, injection
// adds the injected count plus the new flit's weight, a forward hop
// trades weight i+1 for i+2, and consuming the flit at the last position
// trades weight len(queued) for the consumed credit len(queued)+1 — every
// event nets at least +1 and no transition decreases any term.
func (s *Sim) Progress(id int) int {
	m := &s.msgs[id]
	p := m.injected + (m.n+1)*m.consumed + m.n
	for i, q := range s.queue(m) {
		p += (i + 1) * int(q)
	}
	if m.headerConsumed {
		p++
	}
	return p
}

// Candidates returns every channel message id's header wants this cycle,
// regardless of whether the channel is free: the full adaptive candidate
// set at the current head, or the single next path channel of an
// oblivious message. Held, frozen, delivering and delivered messages want
// nothing. The liveness engine's extended adversary uses the difference
// between this set and AcquirableCandidates to model stale selections —
// an adaptive router persistently offering a busy output.
func (s *Sim) Candidates(id int) []topology.ChannelID {
	return append([]topology.ChannelID(nil), s.wantedChannels(&s.msgs[id])...)
}

// FullyInjected reports whether every flit of message id has left the
// source: the injection port is free for the next message. The traffic
// engine uses this to serialize each source's open-loop backlog the way a
// real injection queue would.
func (s *Sim) FullyInjected(id int) bool {
	m := &s.msgs[id]
	return m.injected >= m.length
}

// DeliveredAt returns the cycle message id's tail flit was consumed, or
// -1 if it has not been fully delivered.
func (s *Sim) DeliveredAt(id int) int {
	m := &s.msgs[id]
	if !m.delivered() {
		return -1
	}
	return m.deliveredAt
}
