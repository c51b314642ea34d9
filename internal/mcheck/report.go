package mcheck

import (
	"time"

	"repro/internal/obsv"
)

// reporter is the search's one reporting path, for Search and
// SearchLiveness alike. It runs only on the goroutine that owns the
// search's bookkeeping (the merge), so it needs no locking, and it reads
// the visited store only there, as the stats contract requires. Every BFS
// level is reported through level, and the search ends with done.
type reporter struct {
	eng      *engine
	start    time.Time // when the search began; Elapsed counts from here
	warnings []string
}

// level reports the start of a BFS level: the trace event and the level
// gauges, including the visited store's live accounting, which is what a
// live reader of the registry (/metrics, -progress) sees of a running
// search. It runs before the level's merge, from the single merge
// goroutine, so the traced sequence is the same for every Parallelism
// value.
func (r *reporter) level(level, frontier, states int) {
	opts := &r.eng.opts
	if opts.Tracer != nil {
		ev := obsv.Ev(obsv.KindSearchLevel, level)
		ev.N = frontier
		ev.M = states
		opts.Tracer.Event(ev)
	}
	if m := opts.Metrics; m != nil {
		m.Gauge("mcheck_search_level").Set(int64(level))
		m.Gauge("mcheck_frontier_size").Set(int64(frontier))
		m.Gauge("mcheck_frontier_peak").Max(int64(frontier))
		m.Gauge("mcheck_states").Set(int64(states))
		var vs VisitedStats
		r.eng.visited.stats(&vs)
		m.Gauge("mcheck_visited_bytes").Set(vs.Bytes)
		if opts.Visited.Backend == VisitedSpill {
			m.Gauge("mcheck_visited_spill_bytes").Set(vs.SpillBytes)
			m.Gauge("mcheck_visited_spill_runs").Set(int64(vs.SpillRuns))
		}
	}
}

// done completes a result with everything the engine accounts for —
// timing, visited-set figures, workers, reductions and pruning counters
// — then emits KindSearchDone and the final gauges, and attaches the
// warnings.
func (r *reporter) done(res SearchResult) SearchResult {
	eng, opts := r.eng, &r.eng.opts
	res.Elapsed = time.Since(r.start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.StatesPerSec = float64(res.States) / secs
	}
	eng.visited.stats(&res.Visited)
	res.PeakVisited = res.Visited.Entries
	res.Workers = len(eng.workers)
	res.Reduction = opts.Reduction
	res.SymmetryGroup = 1 + len(eng.perms)
	// Worker pruning counters sum deterministically: expandBatch is a
	// barrier, so every level that influenced the result was expanded in
	// full before its merge (including the final, early-returning one),
	// and the per-worker split of a level never changes totals.
	var st enumStats
	var post int64
	for _, w := range eng.workers {
		st.add(&w.stats)
		post += w.postPruned
	}
	res.StatesPruned = int(st.sleepSkips + st.freezeSkips + st.pickSkips + post)
	res.SleepSetHits = int(st.sleepSets)

	if opts.Tracer != nil {
		ev := obsv.Ev(obsv.KindSearchDone, 0)
		ev.N = res.States
		ev.Note = res.Verdict.String()
		opts.Tracer.Event(ev)
	}
	if m := opts.Metrics; m != nil {
		m.Gauge("mcheck_states").Set(int64(res.States))
		m.Gauge("mcheck_peak_visited").Set(int64(res.PeakVisited))
		m.Gauge("mcheck_workers").Set(int64(res.Workers))
		m.Gauge("mcheck_visited_bytes").Set(res.Visited.Bytes)
		// Spill and reduction gauges exist only when that backend or a
		// reduction ran, keeping default snapshots free of them.
		if opts.Visited.Backend == VisitedSpill {
			m.Gauge("mcheck_visited_spill_bytes").Set(res.Visited.SpillBytes)
			m.Gauge("mcheck_visited_spill_runs").Set(int64(res.Visited.SpillRuns))
		}
		if opts.Reduction != RedNone {
			m.Gauge("mcheck_states_pruned").Set(int64(res.StatesPruned))
			m.Gauge("mcheck_sleep_set_hits").Set(int64(res.SleepSetHits))
			m.Gauge("mcheck_symmetry_group").Set(int64(res.SymmetryGroup))
		}
	}
	res.Warnings = r.warnings
	return res
}
