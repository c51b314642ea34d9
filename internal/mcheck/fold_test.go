package mcheck

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/waitfor"
)

// foldCase is one search whose expanded states the fold and step-parity
// tests visit.
type foldCase struct {
	name     string
	sc       sim.Scenario
	opts     SearchOptions
	liveness bool // searched by SearchLiveness (maskAll) instead of Search
	heavy    bool // skipped with -short
}

// foldCases is the corpus: Figure 1, Figure 2 and Figure 3 (a)-(f) at
// stall budgets 0 and 1, Gen(2...5) at budget k and the waiter ring at
// budget 0, each with and without partial-order plus symmetry reduction
// and with and without FreezeInTransitOnly. The liveness search's
// adaptive scenarios — StaleSelection, the same network with n1's route
// reversed so the owned candidate comes first, and the diamond — join at
// budgets 0 and 1 under maskAll, where stale selections are enumerated.
// Short mode, which CI runs under the race detector, skips Figure 3 (f)
// and the Gen(k) searches.
func foldCases() []foldCase {
	type base struct {
		name    string
		sc      sim.Scenario
		budgets []int
		heavy   bool
	}
	bases := []base{
		{"figure1", papernets.Figure1().Scenario, []int{0, 1}, false},
		{"figure2", papernets.Figure2().Scenario, []int{0, 1}, false},
		{"ring4-waiter", ringWithWaiter(), []int{0}, false},
	}
	for letter := byte('a'); letter <= 'f'; letter++ {
		bases = append(bases, base{fmt.Sprintf("figure3%c", letter), papernets.Figure3(letter).Scenario, []int{0, 1}, letter == 'f'})
	}
	for k := 2; k <= 5; k++ {
		bases = append(bases, base{fmt.Sprintf("gen%d", k), papernets.GenK(k).Scenario, []int{k}, true})
	}
	var cases []foldCase
	diamond, _ := twoBranchScenario()
	for _, b := range []base{
		{"staleselection", papernets.StaleSelection(), []int{0, 1}, false},
		{"staleselection-reversed", reversedStaleSelection(), []int{0, 1}, false},
		{"diamond", diamond, []int{0, 1}, false},
	} {
		for _, budget := range b.budgets {
			for _, inTransit := range []bool{false, true} {
				cases = append(cases, foldCase{
					name:     fmt.Sprintf("liveness/%s/stall%d/inTransit=%v", b.name, budget, inTransit),
					sc:       b.sc,
					opts:     SearchOptions{StallBudget: budget, FreezeInTransitOnly: inTransit},
					liveness: true,
				})
			}
		}
	}
	for _, b := range bases {
		for _, budget := range b.budgets {
			for _, red := range []Reduction{RedNone, RedPOR | RedSymmetry} {
				for _, inTransit := range []bool{false, true} {
					cases = append(cases, foldCase{
						name:  fmt.Sprintf("%s/stall%d/%v/inTransit=%v", b.name, budget, red, inTransit),
						sc:    b.sc,
						opts:  SearchOptions{StallBudget: budget, FreezeInTransitOnly: inTransit, Reduction: red},
						heavy: b.heavy,
					})
				}
			}
		}
	}
	return cases
}

// ringWithWaiter is ringScenario(2) plus a one-hop message entering on
// message 0's first channel. The search's first deadlock leaves it held
// behind the stuck ring, so under partial-order reduction the deadlocked
// state has a sleep set.
func ringWithWaiter() sim.Scenario {
	sc := ringScenario(2)
	sc.Name = "ring4-waiter"
	sc.Msgs = append(sc.Msgs, sim.MessageSpec{Src: 0, Dst: 1, Length: 1, Path: []topology.ChannelID{0}})
	return sc
}

// walkExpanded replays Search's (or, for a liveness case,
// SearchLiveness's) level-synchronous expansion of tc on one worker and
// hands every state the search expands to visit, with its encoding and
// the budget it is expanded under. visit must expand the state with
// w.expand and return the result; walkExpanded merges the successors in
// the search's order and stops after the level holding the first
// deadlock or loop, where the search stops. It checks that the walk
// reaches the search's verdict, and on a complete space its state count,
// so the states visited are the search's.
func walkExpanded(t *testing.T, tc foldCase, visit func(w *searchWorker, s *sim.Sim, enc []byte, budget int) expandResult) {
	t.Helper()
	opts := normalizeSearchOptions(tc.sc, tc.opts)
	opts.Parallelism = 1
	var perms []sim.Permutation
	if opts.Reduction.Symmetry() {
		perms = scenarioSymmetries(tc.sc)
	}
	cfg := enumConfig{inTransitOnly: opts.FreezeInTransitOnly, por: opts.Reduction.POR(), maskAll: tc.liveness}
	root := newHeldSim(tc.sc)
	eng := newEngine(opts, cfg, perms, root, 1, time.Now())
	defer eng.visited.close()
	w := eng.workers[0]

	type entry struct {
		enc    []byte
		budget int
	}
	var key, enc, scratch []byte
	root.CanonicalEncodeTo(perms, &key, &scratch)
	root.EncodeTo(&enc)
	eng.visited.insert(eng.visited.hash(key), key, opts.StallBudget)
	level := []entry{{enc, opts.StallBudget}}
	states := 1
	found := VerdictNoDeadlock // the first expanded state's terminal verdict
	for len(level) > 0 && found == VerdictNoDeadlock {
		var next []entry
		for _, e := range level {
			w.succs, w.arena = w.succs[:0], w.arena[:0]
			if err := w.enum.probe.DecodeFrom(e.enc); err != nil {
				t.Fatal(err)
			}
			r := visit(w, w.enum.probe, e.enc, e.budget)
			switch {
			case found != VerdictNoDeadlock:
			case r.deadlocked:
				found = VerdictDeadlock
			case r.loop >= 0:
				found = VerdictLivelock
			}
			for _, su := range w.succs[r.lo:r.hi] {
				if !eng.visited.insert(su.hash, w.arena[su.keyLo:su.keyHi], su.budget) {
					continue
				}
				states++
				next = append(next, entry{bytes.Clone(w.arena[su.encLo:su.encHi]), su.budget})
			}
		}
		level = next
	}
	want := search(tc.sc, tc.opts, tc.liveness)
	verdict := want.Verdict
	if verdict == VerdictLocalDeadlock {
		verdict = VerdictDeadlock // expand does not tell local from global
	}
	if found != verdict {
		t.Fatalf("walk found %v, the search says %v", found, want.Verdict)
	}
	if found == VerdictNoDeadlock && states != want.States {
		t.Fatalf("walk visited %d states, the search %d", states, want.States)
	}
}

// deadlocked is the reference deadlock probe: no flit can ever move again
// among the active messages (held messages are the adversary's to withhold
// forever) and some message is stuck in-network. Movement possibility is
// arbitration-independent, so stepping a scratch copy once decides it
// exactly.
func (w *searchWorker) deadlocked(s *sim.Sim) bool {
	if !anyInNetwork(s) {
		return false
	}
	w.scratch.CopyFrom(s)
	return !w.scratch.Step().Moved
}

// TestFirstDecisionDecidesDeadlock: Search takes its deadlock verdict
// from the first decision it enumerates instead of stepping a separate
// probe. On every state the corpus searches expand, that verdict must
// agree with the reference probe (CopyFrom + Step, see deadlocked), and a
// deadlocked state must leave no successor and no pruning count behind —
// forEach may bump the sleep-set counter before it yields the first
// decision, so expand rolls the counters back. Under liveness a permanent
// cycle (waitfor.FindLocal) also marks a state deadlocked; every other
// state must still get the reference verdict, which a stale selection in
// the first decision would break.
func TestFirstDecisionDecidesDeadlock(t *testing.T) {
	bumped := 0 // deadlocked states whose enumeration counted a sleep set
	for _, tc := range foldCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy corpus case; run without -short")
			}
			walkExpanded(t, tc, func(w *searchWorker, s *sim.Sim, enc []byte, budget int) expandResult {
				want := !s.AllDelivered() && (w.deadlocked(s) || tc.liveness && waitfor.FindLocal(s) != nil)
				stats, post := w.stats, w.postPruned
				succs, arena := len(w.succs), len(w.arena)
				r := w.expand(s, enc, budget)
				if r.deadlocked != want {
					t.Fatalf("first decision says deadlocked=%v, the step probe %v", r.deadlocked, want)
				}
				if !r.deadlocked {
					return r
				}
				if w.stats != stats || w.postPruned != post {
					t.Fatalf("deadlocked state changed the pruning counters: %+v/%d -> %+v/%d", stats, post, w.stats, w.postPruned)
				}
				if r.hi != r.lo || len(w.succs) != succs || len(w.arena) != arena {
					t.Fatalf("deadlocked state left successors: [%d,%d), succs %d -> %d, arena %d -> %d",
						r.lo, r.hi, succs, len(w.succs), arena, len(w.arena))
				}
				var probe enumStats
				w.enum.forEach(s, budget, w.eng.cfg, &probe, func(*Decision) bool { return false })
				if probe.sleepSets > 0 {
					bumped++
				}
				return r
			})
		})
	}
	if bumped == 0 {
		t.Error("no deadlocked state counted a sleep set before its first decision; the rollback went unexercised")
	}
}

// TestStepFromMatchesStepWithPicks: Search steps a successor from the
// enumerator's probe and the arbitration plan its Contentions call left
// behind, or assembles it from a stepped sibling's bytes. On every state
// the corpus searches expand, each stepped decision's successor must
// encode byte-identically to the one CopyFrom + apply + StepWithPicks
// builds, and report the same movement. Each assembled decision's
// successor, built that same way, must be the one expand kept: the same
// key (CanonicalEncodeTo), frontier bytes (EncodeTo) and budget. An
// assembled successor that expand did not keep must be one it had to
// drop: pruned by the partial-order post-step check, or rejected by the
// visited pre-filter. The corpus must assemble something.
func TestStepFromMatchesStepWithPicks(t *testing.T) {
	assembled := 0
	for _, tc := range foldCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("heavy corpus case; run without -short")
			}
			root := newHeldSim(tc.sc)
			enum := newDecisionEnum(root)
			planned, applied := root.Clone(), root.Clone()
			var encPlanned, encApplied, key, scratch []byte
			type want struct {
				dec      int32
				key, enc []byte
				budget   int
				pruned   bool
			}
			decisions := 0
			walkExpanded(t, tc, func(w *searchWorker, s *sim.Sim, enc []byte, budget int) expandResult {
				var wants []want
				dec := int32(-1)
				enum.forEach(s, budget, w.eng.cfg, nil, func(d *Decision) bool {
					dec++
					decisions++
					applied.CopyFrom(s)
					apply(applied, *d)
					ra := applied.StepWithPicks(d.Picks)
					encApplied = encApplied[:0]
					applied.EncodeTo(&encApplied)
					if enum.kind != succAssembled {
						rp := planned.StepFrom(enum.probe, d.Picks)
						encPlanned = encPlanned[:0]
						planned.EncodeTo(&encPlanned)
						if rp != ra || !bytes.Equal(encPlanned, encApplied) {
							t.Fatalf("decision %+v: StepFrom moved=%v %x, StepWithPicks moved=%v %x",
								*d, rp.Moved, encPlanned, ra.Moved, encApplied)
						}
						return true
					}
					pruned := false
					for _, id := range d.Activate {
						pruned = pruned || w.eng.cfg.por && !applied.InNetwork(id) && !applied.Delivered(id)
					}
					key = key[:0]
					applied.CanonicalEncodeTo(w.eng.perms, &key, &scratch)
					wants = append(wants, want{dec, bytes.Clone(key), bytes.Clone(encApplied), budget - len(d.Freeze), pruned})
					return true
				})
				r := w.expand(s, enc, budget)
				if r.deadlocked || r.loop >= 0 {
					return r // expand stopped before the rest of the decisions
				}
				kept := map[int32]succState{}
				for _, su := range w.succs[r.lo:r.hi] {
					kept[su.dec] = su
				}
				for _, wt := range wants {
					assembled++
					su, ok := kept[wt.dec]
					if !ok {
						if !wt.pruned && w.eng.visited.novel(w.eng.visited.hash(wt.key), wt.key, wt.budget) {
							t.Fatalf("assembled decision %d was dropped, but its successor %x is novel", wt.dec, wt.enc)
						}
						continue
					}
					gotKey, gotEnc := w.arena[su.keyLo:su.keyHi], w.arena[su.encLo:su.encHi]
					if wt.pruned || !bytes.Equal(gotKey, wt.key) || !bytes.Equal(gotEnc, wt.enc) || su.budget != wt.budget {
						t.Fatalf("assembled decision %d: kept key %x enc %x budget %d; stepped key %x enc %x budget %d pruned %v",
							wt.dec, gotKey, gotEnc, su.budget, wt.key, wt.enc, wt.budget, wt.pruned)
					}
				}
				return r
			})
			if decisions == 0 {
				t.Fatal("no decision enumerated")
			}
		})
	}
	if assembled == 0 {
		t.Error("the corpus assembled no successor; the assembled path went unchecked")
	}
}

// TestStepFromRejectsStalePlans: StepFrom keeps StepWithPicks' guard
// against a pick naming a non-contender, and refuses a probe whose state
// changed after its Contentions call.
func TestStepFromRejectsStalePlans(t *testing.T) {
	probe := newHeldSim(ringScenario(2))
	for id := 0; id < probe.NumMessages(); id++ {
		probe.SetHeld(id, false)
	}
	probe.Contentions()
	c := probe.PathChannel(0, 0)
	rival := -1
	for id := 1; id < probe.NumMessages(); id++ {
		if probe.PathChannel(id, 0) != c {
			rival = id
			break
		}
	}
	if rival < 0 {
		t.Fatal("test bug: every message enters on one channel")
	}
	succ := probe.Clone()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a non-contender pick", func() {
		succ.StepFrom(probe, map[topology.ChannelID]int{c: rival})
	})
	probe.SetHeld(0, true)
	mustPanic("a stale plan", func() { succ.StepFrom(probe, nil) })
	probe.Contentions()
	succ.StepFrom(probe, nil)
}
