package sim

import "fmt"

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

// SetInjectAt changes the earliest injection cycle of message id. Only
// messages that have not begun injecting (never, or just reset) can be
// retimed; schedule sweeps use this to re-run one pooled simulator over a
// grid of injection schedules without rebuilding it.
func (s *Sim) SetInjectAt(id, at int) error {
	m := &s.msgs[id]
	if m.injected > 0 && !m.terminal() {
		return fmt.Errorf("sim: SetInjectAt(%d): message is in the network", id)
	}
	if at < 0 {
		return fmt.Errorf("sim: SetInjectAt(%d): negative injection time %d", id, at)
	}
	m.spec.InjectAt = at
	return nil
}

// SetLength changes the flit count of message id. Like SetInjectAt it is
// only legal before the message begins injecting.
func (s *Sim) SetLength(id, length int) error {
	m := &s.msgs[id]
	if m.injected > 0 && !m.terminal() {
		return fmt.Errorf("sim: SetLength(%d): message is in the network", id)
	}
	if length < 1 {
		return fmt.Errorf("sim: SetLength(%d): length %d < 1", id, length)
	}
	wasTerminal := m.terminal()
	m.spec.Length = length
	// Lengthening a fully delivered message revives it (it resumes
	// injecting its new tail flits), so it re-enters the live population.
	if wasTerminal && !m.terminal() {
		s.liveCount++
		s.ensureActive(id)
	}
	return nil
}

// SetArbiter replaces the arbitration policy for subsequent cycles.
func (s *Sim) SetArbiter(a Arbiter) {
	if a == nil {
		a = FIFOArbiter{}
	}
	s.cfg.Arbiter = a
}
