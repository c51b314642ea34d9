package sim

// Reset returns the simulator to the empty state New produces — no
// messages, cycle zero, all channels free and in service — while keeping
// the network, configuration and slice capacity. Pools of simulators use
// it to recycle an instance for a fresh message set.
func (s *Sim) Reset() {
	s.now = 0
	s.msgs = s.msgs[:0]
	for i := range s.owner {
		s.owner[i] = -1
	}
	clear(s.downUntil)
	s.downMax = 0
	s.waitingSince = s.waitingSince[:0]
	s.lastMoved = false
	s.lastThawed = false
	s.waits.Reset(0)
	s.active = s.active[:0]
	s.liveCount = 0
	s.droppedCount = 0
	s.flitsConsumed = 0
	s.planned = false
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
// Between two simulators of the same scenario CopyFrom stores no message
// pointer: spec pointers are already equal, path and queue contents are
// copied into s's own backing arrays, and a slice header is rewritten
// only when a length changes. So the message copy runs no GC write
// barriers; the configuration's arbiter is the one pointer stored.
func (s *Sim) CopyFrom(src *Sim) {
	if s.net != src.net {
		panic("sim: CopyFrom across different networks")
	}
	s.cfg = src.cfg
	if c, ok := src.cfg.Arbiter.(ArbiterCloner); ok {
		s.cfg.Arbiter = c.CloneArbiter()
	}
	s.now = src.now
	copyInto(&s.owner, src.owner)
	if s.downMax != 0 || src.downMax != 0 || len(s.downUntil) != len(src.downUntil) {
		copyInto(&s.downUntil, src.downUntil)
		s.downMax = src.downMax
	}
	copyInto(&s.waitingSince, src.waitingSince)
	s.lastMoved = src.lastMoved
	s.lastThawed = src.lastThawed

	// Reuse message structs (and their queued/path backing arrays) from
	// previous generations of this sim where possible.
	if cap(s.msgs) >= len(src.msgs) {
		s.msgs = s.msgs[:len(src.msgs)] // revives structs parked beyond the old length
	} else {
		s.msgs = append(s.msgs[:cap(s.msgs)], make([]message, len(src.msgs)-cap(s.msgs))...)
	}
	for i := range src.msgs {
		sm := &src.msgs[i]
		dm := &s.msgs[i]
		if dm.spec != sm.spec {
			dm.spec = sm.spec
		}
		dm.msgState = sm.msgState
		copyInto(&dm.path, sm.path)
		copyInto(&dm.queued, sm.queued)
	}
	copyInto(&s.active, src.active)
	s.liveCount = src.liveCount
	s.droppedCount = src.droppedCount
	s.flitsConsumed = src.flitsConsumed
	// s's scratch arenas and epochs are left alone, and so are its tracer
	// and telemetry collector: per-instance working memory and observers,
	// not simulation state. The arenas hold no plan for the new state.
	s.planned = false
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
