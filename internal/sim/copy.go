package sim

// Reset returns the simulator to the empty state New produces — no
// messages, cycle zero, all channels free — while keeping
// the network, configuration and slice capacity. Pools of simulators use
// it to recycle an instance for a fresh message set.
func (s *Sim) Reset() {
	s.now = 0
	// Clones may still share the specs array, so the slice moves past its
	// used slots instead of truncating into them (see addSpec).
	s.specs = s.specs[len(s.specs):]
	s.msgs = s.msgs[:0]
	clear(s.owner)
	s.flits = s.flits[:0]
	s.hops = s.hops[:0]
	s.lastMoved = false
	s.lastThawed = false
	s.waits.Reset(0)
	s.active = s.active[:0]
	s.liveCount = 0
	s.flitsConsumed = 0
	s.planned = false
	s.predicted = false
	// Scratch arenas and their epoch counters survive Reset untouched:
	// the counters only ever grow, so stale stamps can never read as set.
	// The tracer and telemetry collector also survive: they are observers
	// of this instance, not simulation state.
}

// CopyFrom overwrites s with a deep copy of src, reusing s's existing
// allocations wherever capacity allows. It is Clone without the
// allocations: a search engine keeps a pool of simulators and CopyFrom's
// them back to a frontier state before applying the next branch. Both
// simulators must have been created for the same network (the immutable
// topology is shared, exactly as in Clone), and afterwards they share
// src's immutable message specs. Arbiters implementing ArbiterCloner are
// deep-copied; other arbiters are shared.
//
// The state is the five pointer-free arrays (message states, channel
// owners, buffered flits, adaptive routes and the active list) plus
// scalars, so the copy is one copy per array with no per-message work.
// Between two simulators of the same scenario it stores no pointer but
// the configuration's arbiter: the specs array is already shared, and a
// slice header is rewritten only when a length changes, so the copy runs
// no GC write barriers.
func (s *Sim) CopyFrom(src *Sim) {
	if s.net != src.net {
		panic("sim: CopyFrom across different networks")
	}
	s.cfg = src.cfg
	if c, ok := src.cfg.Arbiter.(ArbiterCloner); ok {
		s.cfg.Arbiter = c.CloneArbiter()
	}
	s.now = src.now
	if n := len(src.specs); len(s.specs) != n || n > 0 && &s.specs[0] != &src.specs[0] {
		// Capacity-limited, so an Add to s moves s to an array of its own.
		s.specs = src.specs[:n:n]
	}
	copyInto(&s.msgs, src.msgs)
	copyInto(&s.owner, src.owner)
	copyInto(&s.flits, src.flits)
	copyInto(&s.hops, src.hops)
	copyInto(&s.active, src.active)
	s.lastMoved = src.lastMoved
	s.lastThawed = src.lastThawed
	s.liveCount = src.liveCount
	s.flitsConsumed = src.flitsConsumed
	// s's scratch arenas and epochs are left alone, and so are its tracer
	// and telemetry collector: per-instance working memory and observers,
	// not simulation state. The arenas hold no plan for the new state.
	s.planned = false
	s.predicted = false
}

// copyInto makes *dst a copy of src in dst's own backing array. It stores
// a slice header only when the length changes, and a new array only when
// the capacity falls short.
func copyInto[T any](dst *[]T, src []T) {
	if cap(*dst) < len(src) {
		*dst = append((*dst)[:0], src...)
		return
	}
	if len(*dst) != len(src) {
		*dst = (*dst)[:len(src)]
	}
	copy(*dst, src)
}
