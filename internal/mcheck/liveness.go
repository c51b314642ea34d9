package mcheck

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/waitfor"
)

// SearchLiveness is the liveness companion to Search: a depth-first
// exploration of the same adversarial transition system that decides three
// finer-grained properties than reachable global deadlock.
//
//   - Local deadlock: a reachable state contains a permanent Definition 6
//     cycle (every member an in-network oblivious message) while traffic
//     outside the blocked subnetwork can still be delivered. Reported as
//     VerdictLocalDeadlock with the exact blocked channel set as witness.
//     When the cycle forms but nothing outside it survives, the verdict
//     stays VerdictDeadlock — the whole network is dead.
//
//   - Livelock/starvation: a reachable cycle in the state graph along
//     which some in-flight message never advances. Detected by lasso
//     search — a nested DFS degenerated by a structural fact: every
//     encoded per-message quantity (injection, flit positions,
//     consumption, materialized route) is monotone under the step
//     relation, so a loop can never contain a transition that moves any
//     flit, and every lasso loop collapses to a single repeated state.
//     The search therefore detects lassos as back edges to a state still
//     on the DFS stack at an unchanged stall budget (a budget-spending
//     freeze could never close a loop either). Reported as
//     VerdictLivelock with a replayable stem+loop witness.
//
// The plain enumeration cannot express a livelock at all: every decision
// it produces either moves a flit or spends budget. SearchLiveness
// therefore runs the enumerator with maskAll, which adds stale adaptive
// selections — the adversary may point an adaptive message at a busy
// candidate, stalling it for a cycle at no budget cost, the way a real
// selection function can keep offering a congested output. For purely
// oblivious scenarios maskAll adds nothing and the explored space is
// identical to Search's, which is what the liveness parity tests pin down.
//
// The search is sequential (Workers is reported as 1) and ignores
// reductions: partial-order and symmetry reduction preserve reachable
// deadlocks, not the cycle structure a lasso search depends on. A
// requested reduction is cleared and surfaced as a result warning.
func SearchLiveness(sc sim.Scenario, opts SearchOptions) SearchResult {
	start := time.Now()
	requireSearchableArbiter(sc.Cfg.Arbiter)
	opts = normalizeSearchOptions(sc, opts)
	var warnings []string
	if opts.Reduction != RedNone {
		warnings = append(warnings, fmt.Sprintf(
			"liveness search ignores reductions (%v requested): they preserve reachable deadlocks, not state-graph cycles", opts.Reduction))
		opts.Reduction = RedNone
	}
	cfg := enumConfig{inTransitOnly: opts.FreezeInTransitOnly, maskAll: true}

	// The DFS carries its stack as live simulators, not frontier batches;
	// the visited backend (including spill) is shared with Search.
	root := newHeldSim(sc)
	eng := newEngine(opts, cfg, nil, root, 1)
	defer eng.visited.close()
	w := eng.workers[0]

	var encBuf []byte
	root.EncodeTo(&encBuf)
	eng.visited.insert(eng.visited.hash(encBuf), encBuf, opts.StallBudget)

	nodes := []provNode{{parent: -1, dec: -1}}
	states := 1

	finish := func(r SearchResult) SearchResult {
		r.Elapsed = time.Since(start)
		if secs := r.Elapsed.Seconds(); secs > 0 {
			r.StatesPerSec = float64(r.States) / secs
		}
		eng.visited.stats(&r.Visited)
		r.PeakVisited = r.Visited.Entries
		r.Workers = 1
		r.Reduction = RedNone
		r.SymmetryGroup = 1
		r.Warnings = warnings
		if opts.Tracer != nil {
			ev := obsv.Ev(obsv.KindSearchDone, 0)
			ev.N = r.States
			ev.Note = r.Verdict.String()
			opts.Tracer.Event(ev)
		}
		if opts.Metrics != nil {
			opts.Metrics.Gauge("mcheck_states").Set(int64(r.States))
			opts.Metrics.Gauge("mcheck_peak_visited").Set(int64(r.PeakVisited))
			opts.Metrics.Gauge("mcheck_workers").Set(int64(r.Workers))
			opts.Metrics.Gauge("mcheck_visited_bytes").Set(r.Visited.Bytes)
		}
		return r
	}

	// livFrame is one state on the DFS stack with its materialized
	// successor decisions. Frame i sits i decisions away from the root, so
	// provenance-rebuilt traces and stack indices line up directly.
	type livFrame struct {
		s      *sim.Sim
		budget int
		node   int32
		key    string
		decs   []Decision
		next   int
	}

	materialize := func(s *sim.Sim, budget int) []Decision {
		var decs []Decision
		w.enum.forEach(s, budget, cfg, nil, func(d *Decision) bool {
			decs = append(decs, copyDecision(d))
			return true
		})
		return decs
	}

	if root.AllDelivered() {
		return finish(SearchResult{Verdict: VerdictNoDeadlock, States: states})
	}
	frames := []livFrame{{s: root, budget: opts.StallBudget, node: 0,
		key: string(encBuf), decs: materialize(root, opts.StallBudget)}}
	onStack := map[string]int{frames[0].key: 0}

	lastProgress := start
	emitProgress := func() {
		if opts.Progress == nil {
			return
		}
		if now := time.Now(); now.Sub(lastProgress) >= opts.ProgressEvery {
			lastProgress = now
			elapsed := now.Sub(start)
			sps := 0.0
			if secs := elapsed.Seconds(); secs > 0 {
				sps = float64(states) / secs
			}
			opts.Progress(ProgressInfo{Level: len(frames), Frontier: len(frames),
				States: states, Elapsed: elapsed, StatesPerSec: sps})
		}
	}

	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.next >= len(f.decs) {
			delete(onStack, f.key)
			eng.putSim(f.s)
			frames = frames[:len(frames)-1]
			continue
		}
		d := f.decs[f.next]
		ord := int32(f.next)
		f.next++

		succ := eng.getSim(f.s)
		apply(succ, d)
		succ.StepWithPicks(d.Picks)
		newBudget := f.budget - len(d.Freeze)
		encBuf = encBuf[:0]
		succ.EncodeTo(&encBuf)

		// Lasso check: a successor already on the DFS stack at the same
		// budget closes a cycle of states. By monotonicity no flit moved
		// anywhere along it, so the in-network messages of the loop head
		// — shared by every loop state — are starved. A closure with no
		// in-network message is the adversary idling an empty network:
		// harmless, skip it.
		if fi, ok := onStack[string(encBuf)]; ok && frames[fi].budget == newBudget {
			starved := starvedIDs(succ)
			if len(starved) > 0 {
				trace := rebuildTrace(sc, nodes, f.node, opts, cfg)
				lasso := &Lasso{
					Stem:    append([]Decision(nil), trace[:fi]...),
					Loop:    append(append([]Decision(nil), trace[fi:]...), d),
					Starved: starved,
				}
				eng.putSim(succ)
				return finish(SearchResult{
					Verdict: VerdictLivelock,
					States:  states,
					Trace:   append(trace, d),
					Lasso:   lasso,
				})
			}
			eng.putSim(succ)
			continue
		}

		h := eng.visited.hash(encBuf)
		if !eng.visited.insert(h, encBuf, newBudget) {
			// Already explored at this budget or better. A cycle through a
			// completed state would have been found when that state was on
			// the stack: loops spend no budget, so every loop decision was
			// already available at the recorded (≥) budget.
			eng.putSim(succ)
			continue
		}
		states++
		if states > opts.MaxStates {
			eng.putSim(succ)
			return finish(SearchResult{Verdict: VerdictExhausted, States: states})
		}
		nodes = append(nodes, provNode{parent: f.node, dec: ord})
		node := int32(len(nodes) - 1)

		if succ.AllDelivered() {
			eng.putSim(succ)
			continue
		}
		if ld := waitfor.FindLocal(succ); ld != nil {
			trace := rebuildTrace(sc, nodes, node, opts, cfg)
			r := SearchResult{States: states, Trace: trace, Deadlock: &ld.Deadlock}
			if len(ld.Live) > 0 {
				r.Verdict = VerdictLocalDeadlock
				r.Local = ld
			} else {
				// The cycle is permanent and nothing outside it can ever
				// be delivered: the deadlock is global.
				r.Verdict = VerdictDeadlock
			}
			eng.putSim(succ)
			return finish(r)
		}
		if w.deadlocked(succ) {
			trace := rebuildTrace(sc, nodes, node, opts, cfg)
			r := SearchResult{Verdict: VerdictDeadlock, States: states,
				Trace: trace, Deadlock: waitfor.Find(succ)}
			eng.putSim(succ)
			return finish(r)
		}

		frames = append(frames, livFrame{s: succ, budget: newBudget, node: node,
			key: string(encBuf), decs: materialize(succ, newBudget)})
		onStack[frames[len(frames)-1].key] = len(frames) - 1
		emitProgress()
	}
	return finish(SearchResult{Verdict: VerdictNoDeadlock, States: states})
}

// starvedIDs lists the in-network, undelivered messages of a state — the
// messages a state-graph loop through it starves.
func starvedIDs(s *sim.Sim) []int {
	var out []int
	for id := 0; id < s.NumMessages(); id++ {
		if s.InNetwork(id) {
			out = append(out, id)
		}
	}
	return out
}

// Lasso is a replayable livelock witness: drive the scenario along Stem to
// the loop head, then repeat Loop forever. Every iteration reproduces the
// loop head's encoding exactly, and no message in Starved ever advances.
type Lasso struct {
	// Stem is the decision sequence from the empty network to the loop
	// head.
	Stem []Decision
	// Loop returns the network to the loop head with every message's
	// Progress unchanged.
	Loop []Decision
	// Starved lists the in-network, undelivered messages at the loop
	// head; none of them moves a flit anywhere along the loop.
	Starved []int
}

// ReplayLasso re-executes a lasso witness on a fresh instance of the
// scenario: the stem once, then the loop n times. It returns the simulator
// positioned at the loop head after the final iteration, so callers can
// check encodings and Progress counters independently of the search.
func ReplayLasso(sc sim.Scenario, l *Lasso, n int) *sim.Sim {
	s := newHeldSim(sc)
	for _, d := range l.Stem {
		apply(s, d)
		s.StepWithPicks(d.Picks)
	}
	for i := 0; i < n; i++ {
		for _, d := range l.Loop {
			apply(s, d)
			s.StepWithPicks(d.Picks)
		}
	}
	return s
}

// VerifyLasso independently validates a livelock witness: replaying the
// stem must reach a loop head whose encoding recurs after each of two loop
// iterations, with every starved message in-network and its Progress
// counter frozen throughout. It returns an error describing the first
// violated clause, nil when the witness demonstrates a genuine livelock.
func VerifyLasso(sc sim.Scenario, l *Lasso) error {
	if l == nil || len(l.Loop) == 0 {
		return fmt.Errorf("mcheck: empty lasso")
	}
	if len(l.Starved) == 0 {
		return fmt.Errorf("mcheck: lasso starves no message")
	}
	s := ReplayLasso(sc, l, 0)
	var head, cur []byte
	s.EncodeTo(&head)
	prog := make(map[int]int, len(l.Starved))
	for _, id := range l.Starved {
		if !s.InNetwork(id) {
			return fmt.Errorf("mcheck: starved message m%d is not in-network at the loop head", id)
		}
		prog[id] = s.Progress(id)
	}
	for i := 1; i <= 2; i++ {
		for _, d := range l.Loop {
			apply(s, d)
			s.StepWithPicks(d.Picks)
		}
		cur = cur[:0]
		s.EncodeTo(&cur)
		if !bytes.Equal(head, cur) {
			return fmt.Errorf("mcheck: loop iteration %d does not reproduce the loop head", i)
		}
		for _, id := range l.Starved {
			if got := s.Progress(id); got != prog[id] {
				return fmt.Errorf("mcheck: starved message m%d advanced (progress %d -> %d)", id, prog[id], got)
			}
		}
	}
	return nil
}
