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
	for i := range s.downUntil {
		s.downUntil[i] = 0
	}
	s.waitingSince = s.waitingSince[:0]
	s.lastMoved = false
	s.lastThawed = false
	s.waits.Reset(0)
	s.active = s.active[:0]
	s.liveCount = 0
	s.droppedCount = 0
	s.flitsConsumed = 0
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
// topology is shared, exactly as in Clone). Arbiters implementing
// ArbiterCloner are deep-copied; other arbiters are shared.
func (s *Sim) CopyFrom(src *Sim) {
	if s.net != src.net {
		panic("sim: CopyFrom across different networks")
	}
	s.cfg = src.cfg
	if c, ok := src.cfg.Arbiter.(ArbiterCloner); ok {
		s.cfg.Arbiter = c.CloneArbiter()
	}
	s.now = src.now
	s.owner = append(s.owner[:0], src.owner...)
	s.downUntil = append(s.downUntil[:0], src.downUntil...)
	s.waitingSince = append(s.waitingSince[:0], src.waitingSince...)
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
		queued, path := dm.queued, dm.path
		*dm = *sm
		dm.queued = append(queued[:0], sm.queued...)
		dm.path = append(path[:0], sm.path...)
	}
	s.active = append(s.active[:0], src.active...)
	s.liveCount = src.liveCount
	s.droppedCount = src.droppedCount
	s.flitsConsumed = src.flitsConsumed
	// s's scratch arenas and epochs are left alone, and so are its tracer
	// and telemetry collector: per-instance working memory and observers,
	// not simulation state.
}
