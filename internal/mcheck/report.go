package mcheck

import (
	"fmt"
	"time"

	"repro/internal/obsv"
)

// reporter is the one reporting path both engines share. It runs only on
// the goroutine that owns the search's bookkeeping (Search's merge, the
// liveness DFS), so it needs no locking, and it reads the visited store
// only there, as the stats contract requires. Search reports every BFS
// level through level; the liveness DFS has no levels and reports only
// the throttled progress call; both end with done.
type reporter struct {
	eng      *engine
	start    time.Time // when the search began; Elapsed counts from here
	last     time.Time // last throttled Progress call
	broken   bool      // Progress panicked; reporting is off
	warnings []string
	vstats   VisitedStats // reused snapshot for the progress path
}

// level reports the start of a BFS level: the trace event, the level
// gauges and a throttled Progress call. It runs before the level's merge,
// from the single merge goroutine, so the traced sequence is the same for
// every Parallelism value.
func (r *reporter) level(level, frontier, states int) {
	opts := &r.eng.opts
	if opts.Tracer != nil {
		ev := obsv.Ev(obsv.KindSearchLevel, level)
		ev.N = frontier
		ev.M = states
		opts.Tracer.Event(ev)
	}
	if opts.Metrics != nil {
		opts.Metrics.Gauge("mcheck_search_level").Set(int64(level))
		opts.Metrics.Gauge("mcheck_frontier_size").Set(int64(frontier))
		opts.Metrics.Gauge("mcheck_frontier_peak").Max(int64(frontier))
		opts.Metrics.Gauge("mcheck_states").Set(int64(states))
	}
	r.progress(level, frontier, states)
}

// progress calls Progress when at least ProgressEvery has passed since
// the last call, with the visited store's live accounting.
func (r *reporter) progress(level, frontier, states int) {
	if r.eng.opts.Progress == nil || r.broken {
		return
	}
	now := time.Now()
	if now.Sub(r.last) < r.eng.opts.ProgressEvery {
		return
	}
	r.last = now
	r.eng.visited.stats(&r.vstats)
	r.call(progressInfo(level, frontier, states, now.Sub(r.start), &r.vstats))
}

// call shields the search from the caller's Progress callback: a panic
// there is contained, surfaced as a result warning, and disables further
// reporting. It never corrupts the verdict.
func (r *reporter) call(p ProgressInfo) {
	if r.eng.opts.Progress == nil || r.broken {
		return
	}
	defer func() {
		if rec := recover(); rec != nil {
			r.broken = true
			r.warnings = append(r.warnings,
				fmt.Sprintf("progress callback panicked: %v (progress reporting disabled for the rest of the search)", rec))
		}
	}()
	r.eng.opts.Progress(p)
}

// done completes a result with everything the engine accounts for —
// timing, visited-set figures, workers, reductions and pruning counters
// — then emits KindSearchDone, the final gauges and the final Progress
// call, and attaches the warnings.
func (r *reporter) done(res SearchResult, level int) SearchResult {
	eng, opts := r.eng, &r.eng.opts
	res.Elapsed = time.Since(r.start)
	res.StatesPerSec = perSec(res.States, res.Elapsed)
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
	r.call(progressInfo(level, 0, res.States, res.Elapsed, &res.Visited))
	res.Warnings = r.warnings
	return res
}

// progressInfo assembles one progress report.
func progressInfo(level, frontier, states int, elapsed time.Duration, v *VisitedStats) ProgressInfo {
	return ProgressInfo{
		Level: level, Frontier: frontier, States: states,
		Elapsed: elapsed, StatesPerSec: perSec(states, elapsed),
		VisitedEntries: v.Entries, VisitedBytes: v.Bytes, SpillBytes: v.SpillBytes,
	}
}

// perSec is n per second of d, 0 for a zero duration.
func perSec(n int, d time.Duration) float64 {
	if secs := d.Seconds(); secs > 0 {
		return float64(n) / secs
	}
	return 0
}
