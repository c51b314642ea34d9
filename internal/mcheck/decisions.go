package mcheck

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// decisionEnum streams the adversarial decisions available in a state
// without materializing the cartesian product the old engine built: every
// subset of held messages to activate, every subset of movable in-flight
// messages to freeze (bounded by the stall budget), every adaptive
// candidate selection, and every arbitration outcome. All intermediate
// storage — the probe simulator, subset slices, mask and pick lists and
// the Decision handed to the callback — is owned by the enumerator and reused
// across calls, and the contention query returns the probe's scratch, so
// enumerating an oblivious scenario allocates nothing in steady state.
// Adaptive messages still cost the candidate lists their queries return.
//
// The enumeration order is canonical and load-bearing: the search engine
// identifies a decision by its ordinal (the provenance arena stores
// (parent, decisionIndex) pairs), and witness reconstruction re-runs the
// enumerator to turn ordinals back into Decisions. The order is the same
// nesting the materialized enumeration used — activations by ascending
// subset bitmask, then freezes by ascending subset bitmask, then adaptive
// selections (first adaptive message varying fastest), then arbitration
// picks (lowest contested channel varying fastest) — so state counts and
// witnesses are identical to the historical engine's.
//
// Beside each decision the enumerator tells its callback, in kind and
// pick, how the successor can be built: stepped from the probe, or
// assembled from the bytes of an earlier sibling (see succKind).
type decisionEnum struct {
	probe *sim.Sim // scratch: activation + freeze + mask state applied here

	cfg   enumConfig
	stats *enumStats // nil when the caller doesn't collect statistics

	held    []int
	movable []int
	act     []int
	frz     []int
	adv     []bool // CanAdvanceAll scratch, indexed by message ID

	// masks lists the adaptive messages with a selection to make,
	// ascending, each with its selection in the current combination;
	// maskCands holds their candidates and maskDigits the selected ones.
	masks      []Mask
	maskCands  [][]topology.ChannelID
	maskDigits []int

	// picks holds the winner of each contention in the current
	// combination, in contention order; pickDigits the winners' indices.
	// entries pins, for each activated oblivious message whose entry
	// channel is contested, that contention's index and the message's
	// digit in it (-1 when it is no contender), for the pick-loss filter.
	picks      []sim.Pick
	pickDigits []int
	entries    [][2]int

	dec Decision // the decision handed to fn, rewritten for each one

	// kind and pick describe the decision handed to fn: how its successor
	// is built, and the ordinal of its picks in its pick loop. actGen
	// counts activation subsets over the enumerator's life, so a callback
	// can tell when the probe's held bits last changed.
	kind   succKind
	pick   int
	actGen uint64
	// assemble reports that the current activation subset's base decision
	// kept isolated, the Isolated marks of its plan, and keptCons, a copy
	// of its contentions backed by keptIDs, for the freeze subsets that
	// are assembled instead of stepped.
	assemble bool
	isolated []bool
	keptCons []sim.Contention
	keptIDs  []int
}

// succKind says how the search builds a decision's successor.
type succKind uint8

const (
	// succStep: step the probe, which carries the decision's
	// activations, freezes and masks and the plan of its Contentions call.
	succStep succKind = iota
	// succBase: as succStep, for the activation subset's decision without
	// freezes or mask choice, whose successors assembled siblings copy:
	// the callback keeps the successor of each pick ordinal.
	succBase
	// succAssembled: a decision whose every frozen message is isolated
	// (sim.Isolated) in the base's plan. Its successor is the base's
	// successor with the same pick ordinal, except that each frozen
	// message has its bytes in the probe before the step: it did not
	// move, and its one-cycle freeze counted back to 0. The probe carries
	// the decision's activations but neither its freezes nor a plan for
	// them, so the decision must not be stepped from it.
	succAssembled
)

// newDecisionEnum returns an enumerator whose probe is a clone of proto;
// proto must be structurally identical (same scenario) to every state the
// enumerator will be asked to expand.
func newDecisionEnum(proto *sim.Sim) *decisionEnum {
	return &decisionEnum{probe: proto.Clone()}
}

// maxSubsetItems guards the 2^n subset enumerations; the paper's scenarios
// have at most a handful of messages.
const maxSubsetItems = 16

// enumConfig selects the enumeration variant. It is part of the ordinal
// contract: search-time expansion and witness reconstruction must run
// forEach with the same config, or provenance ordinals would point at
// different decisions.
type enumConfig struct {
	// inTransitOnly mirrors SearchOptions.FreezeInTransitOnly.
	inTransitOnly bool
	// por enables the partial-order filters: decisions pruned here are
	// dominated by other enumerated decisions (see DESIGN §5), so the
	// reachable-deadlock verdict is unchanged while the branching factor
	// shrinks. All filters run before fn — and therefore before the
	// caller clones the simulator — and are deterministic functions of
	// the state, keeping ordinals aligned between search and rebuild.
	por bool
	// maskAll widens adaptive selection nondeterminism to every wanted
	// candidate, not just acquirable ones: selecting an owned candidate
	// stalls the message for the cycle at no budget cost — a "stale"
	// selection, modeling an adaptive router that persistently offers a
	// busy output. The liveness engine enables this to expose starvation
	// loops; the plain deadlock engine keeps it off, because a stale
	// selection is a stutter step that can neither create nor destroy a
	// reachable deadlock.
	maskAll bool
}

// enumStats counts partial-order pruning activity across an enumeration's
// lifetime (one searchWorker keeps one, summed at search end).
type enumStats struct {
	// sleepSets counts expanded states whose sleep set was non-empty.
	sleepSets int64
	// sleepSkips counts activation subsets skipped because they included
	// a sleeping (cannot-inject-this-cycle) message.
	sleepSkips int64
	// freezeSkips counts freeze subsets skipped because they froze a
	// message the same decision just activated.
	freezeSkips int64
	// pickSkips counts arbitration combinations skipped because an
	// activated message lost its entry channel to a rival.
	pickSkips int64
}

func (a *enumStats) add(b *enumStats) {
	a.sleepSets += b.sleepSets
	a.sleepSkips += b.sleepSkips
	a.freezeSkips += b.freezeSkips
	a.pickSkips += b.pickSkips
}

// intersects reports whether the two small id slices share an element.
func intersects(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// forEach streams every decision available in state s with the given stall
// budget to fn, in canonical order. The *Decision passed to fn — including
// its lists — is scratch storage valid only during the call; the
// callee must apply or copy it before returning. During the call the probe
// holds s with the decision's activations applied. For a stepped decision
// (e.kind succStep or succBase) it also holds the decision's freezes and
// masks and the arbitration plan of its latest Contentions call, so fn may
// step the successor with StepFrom(e.probe, d.Picks). For an assembled
// decision (succAssembled) it holds neither the freezes nor a plan for
// them: fn builds the successor from the base sibling with ordinal e.pick
// (see succKind), or from s with apply. fn must not
// change the probe. Returning false from fn stops the enumeration;
// forEach reports whether it ran to completion.
//
// s may be the probe itself, which saves a copy; forEach leaves the probe
// in state s on return either way.
func (e *decisionEnum) forEach(s *sim.Sim, budget int, cfg enumConfig, stats *enumStats, fn func(d *Decision) bool) bool {
	e.cfg = cfg
	e.stats = stats
	e.held = e.held[:0]
	for id := 0; id < s.NumMessages(); id++ {
		if s.Held(id) {
			e.held = append(e.held, id)
		}
	}
	if len(e.held) > maxSubsetItems {
		panic("mcheck: subset enumeration over more than 16 items")
	}
	// The probe holds s once per state. Every subset below leaves it as it
	// found it except for held bits, which each activation subset sets
	// afresh and the end restores: freezes are restored to 0 (only
	// messages CanAdvanceAll marks are frozen, and those have none) and
	// masks to topology.None (Step clears them, so s has none).
	if s != e.probe {
		e.probe.CopyFrom(s)
	}
	ok := e.activations(budget, fn)
	for _, id := range e.held {
		e.probe.SetHeld(id, true)
	}
	return ok
}

// activations runs forEach's activation and freeze subsets on the probe.
func (e *decisionEnum) activations(budget int, fn func(d *Decision) bool) bool {
	cfg, stats := e.cfg, e.stats
	// One movability pass, with every held message activated, serves the
	// sleep-set filter and every activation subset's freeze candidates.
	// CanAdvanceAll's answer for a message does not depend on the other
	// messages' held bits (predicted releases only consider fully-injected
	// messages, and activations occupy no channels), and a held message is
	// uninjected, so it can move only when activated. Subset A's movable
	// messages are therefore those that can advance and are unheld once A
	// is applied.
	if cfg.por && len(e.held) > 0 || budget > 0 {
		for _, id := range e.held {
			e.probe.SetHeld(id, false)
		}
		e.adv = e.probe.CanAdvanceAll(e.adv)
	}
	// Sleep-set filter: a held message that cannot inject this cycle even
	// when activated (its entry channel is occupied by a flit that no
	// predicted release frees) contributes nothing to any decision that
	// activates it — the successor matches the same decision without the
	// activation except for the held bit, and the held variant retains
	// strictly more adversary power.
	sleep := 0
	if cfg.por && len(e.held) > 0 {
		for i, id := range e.held {
			if !e.adv[id] {
				sleep |= 1 << i
			}
		}
		if sleep != 0 && stats != nil {
			stats.sleepSets++
		}
	}
	for actMask := 0; actMask < 1<<len(e.held); actMask++ {
		if actMask&sleep != 0 {
			if stats != nil {
				stats.sleepSkips++
			}
			continue
		}
		e.act = subsetInto(e.act[:0], e.held, actMask)
		for i, id := range e.held {
			e.probe.SetHeld(id, actMask&(1<<i) == 0)
		}
		e.actGen++
		e.assemble = false
		e.movable = e.movable[:0]
		if budget > 0 {
			for id, ok := range e.adv {
				if !ok || e.probe.Held(id) {
					continue
				}
				if cfg.inTransitOnly && e.probe.Delivering(id) {
					continue // already delivering: consumption may not stall
				}
				e.movable = append(e.movable, id)
			}
		}
		if len(e.movable) > maxSubsetItems {
			panic("mcheck: subset enumeration over more than 16 items")
		}
		for frzMask := 0; frzMask < 1<<len(e.movable); frzMask++ {
			e.frz = subsetInto(e.frz[:0], e.movable, frzMask)
			if len(e.frz) > budget {
				continue
			}
			// Activate-then-freeze futility: freezing a message the same
			// decision just activated burns a budget unit to keep it out of
			// the network for the cycle — the decision without either choice
			// reaches the same state modulo the held bit with a full budget
			// unit to spare, and holding retains strictly more adversary
			// power than an unheld source that must inject when it can.
			if cfg.por && len(e.act) > 0 && intersects(e.frz, e.act) {
				if stats != nil {
					stats.freezeSkips++
				}
				continue
			}
			if frzMask != 0 && e.assemble && e.allIsolated() {
				// The base's contentions are this decision's too (see
				// succKind), so its picks enumerate over the kept copy.
				e.kind = succAssembled
				if !e.pickLoop(e.keptCons, nil, fn) {
					return false
				}
				continue
			}
			e.kind = succStep
			for _, id := range e.frz {
				e.probe.SetFrozen(id, 1)
			}
			// The base decision, which freezes nothing, keeps what its
			// frozen siblings need to be assembled.
			ok := e.maskLoop(fn, frzMask == 0 && len(e.movable) > 0)
			for _, id := range e.frz {
				e.probe.SetFrozen(id, 0)
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// allIsolated reports whether every message of the current freeze subset
// is isolated in the base decision's plan.
func (e *decisionEnum) allIsolated() bool {
	for _, id := range e.frz {
		if !e.isolated[id] {
			return false
		}
	}
	return true
}

// keepPlan records the base decision's isolation marks and, when some
// freeze candidate is isolated, a copy of its contentions; it reports
// whether any frozen sibling can be assembled.
func (e *decisionEnum) keepPlan(cons []sim.Contention) bool {
	e.isolated = e.probe.Isolated(e.isolated)
	found := false
	for _, id := range e.movable {
		found = found || e.isolated[id]
	}
	if !found {
		return false
	}
	e.keptIDs = e.keptIDs[:0]
	for _, c := range cons {
		e.keptIDs = append(e.keptIDs, c.Contenders...)
	}
	e.keptCons = e.keptCons[:0]
	at := 0
	for _, c := range cons {
		n := len(c.Contenders)
		e.keptCons = append(e.keptCons, sim.Contention{Channel: c.Channel, Contenders: e.keptIDs[at : at+n : at+n]})
		at += n
	}
	return true
}

// maskLoop enumerates adaptive selection nondeterminism on the prepared
// probe: for every adaptive message with several acquirable candidates,
// which one it requests this cycle. With nothing to choose it yields a
// single nil mask assignment, mirroring the historical maskCombos; then,
// when base is set, the decisions are the activation subset's base
// (succBase), provided keepPlan finds a sibling to assemble.
func (e *decisionEnum) maskLoop(fn func(d *Decision) bool, base bool) bool {
	e.masks = e.masks[:0]
	e.maskCands = e.maskCands[:0]
	for id := 0; id < e.probe.NumMessages(); id++ {
		if !e.probe.IsAdaptive(id) {
			continue
		}
		cands := e.probe.AcquirableCandidates(id)
		// Under maskAll, a message that could acquire something may
		// instead be handed a stale selection onto an owned candidate;
		// with nothing acquirable it is blocked whatever it selects, so
		// the extra choices would only duplicate successors. The stale
		// choices follow the acquirable ones, so mask digit 0 — and with
		// it the first decision, which decides deadlock — never selects
		// stale.
		if e.cfg.maskAll && len(cands) > 0 {
			acq := len(cands)
			for _, c := range e.probe.Candidates(id) {
				if !slices.Contains(cands[:acq], c) {
					cands = append(cands, c)
				}
			}
		}
		if len(cands) < 2 {
			continue
		}
		e.masks = append(e.masks, Mask{Msg: id})
		e.maskCands = append(e.maskCands, cands)
	}
	n := len(e.masks)
	e.maskDigits = resetDigits(e.maskDigits, n)
	for {
		for j := range e.masks {
			m := &e.masks[j]
			m.Channel = e.maskCands[j][e.maskDigits[j]]
			e.probe.SetMask(m.Msg, m.Channel)
		}
		cons := e.probe.Contentions()
		if n == 0 && base && e.keepPlan(cons) {
			e.assemble = true
			e.kind = succBase
		}
		ok := e.pickLoop(cons, e.masks, fn)
		for _, m := range e.masks {
			e.probe.SetMask(m.Msg, topology.None)
		}
		if !ok {
			return false
		}
		j := 0
		for j < n {
			e.maskDigits[j]++
			if e.maskDigits[j] < len(e.maskCands[j]) {
				break
			}
			e.maskDigits[j] = 0
			j++
		}
		if j == n {
			return true
		}
	}
}

// pickLoop enumerates arbitration outcomes for the probed contentions and
// yields one complete Decision per combination, numbering the
// combinations in e.pick. With no contentions it yields a single decision
// without picks.
func (e *decisionEnum) pickLoop(cons []sim.Contention, masks []Mask, fn func(d *Decision) bool) bool {
	n := len(cons)
	e.pickDigits = resetDigits(e.pickDigits, n)
	picks := e.picks[:0]
	for _, c := range cons {
		picks = append(picks, sim.Pick{Channel: c.Channel})
	}
	e.picks = picks
	// Pick-loss futility: an activated oblivious message whose entry
	// channel is contested and granted to a rival cannot inject this
	// cycle, so the combination is dominated by the same one without the
	// activation — removing the loser either leaves the grant unchanged or
	// hands the channel to the very rival these picks already chose,
	// producing the identical successor modulo the loser's held bit. (A
	// non-slept activated message always requests its entry channel, so a
	// contested entry channel always lists it as a contender.) Each
	// activated message's entry contention is found once here, so a
	// combination is skipped when a pinned digit differs.
	e.entries = e.entries[:0]
	if e.cfg.por && n > 0 {
		for _, id := range e.act {
			if e.probe.IsAdaptive(id) {
				continue
			}
			entry := e.probe.PathChannel(id, 0)
			for j, c := range cons {
				if c.Channel == entry {
					e.entries = append(e.entries, [2]int{j, slices.Index(c.Contenders, id)})
					break
				}
			}
		}
	}
	for e.pick = 0; ; e.pick++ {
		for j := range picks {
			picks[j].Msg = cons[j].Contenders[e.pickDigits[j]]
		}
		skip := false
		for _, pin := range e.entries {
			if e.pickDigits[pin[0]] != pin[1] {
				skip = true
				break
			}
		}
		if skip {
			if e.stats != nil {
				e.stats.pickSkips++
			}
		} else {
			e.dec = Decision{Activate: e.act, Freeze: e.frz, Masks: masks, Picks: picks}
			if !fn(&e.dec) {
				return false
			}
		}
		j := 0
		for j < n {
			e.pickDigits[j]++
			if e.pickDigits[j] < len(cons[j].Contenders) {
				break
			}
			e.pickDigits[j] = 0
			j++
		}
		if j == n {
			return true
		}
	}
}

// subsetInto appends the subset of ids selected by mask (bit i selects
// ids[i]) to dst and returns it; ascending-bitmask iteration over masks
// reproduces the historical subsets() order, empty set first.
func subsetInto(dst, ids []int, mask int) []int {
	for i := 0; mask != 0; i, mask = i+1, mask>>1 {
		if mask&1 != 0 {
			dst = append(dst, ids[i])
		}
	}
	return dst
}

// resetDigits returns a zeroed digit slice of length n, reusing d.
func resetDigits(d []int, n int) []int {
	if cap(d) < n {
		d = make([]int, n)
	}
	d = d[:n]
	for i := range d {
		d[i] = 0
	}
	return d
}

// copyDecision deep-copies a scratch Decision from the enumerator into an
// independently-owned value for a witness trace. Empty lists stay nil,
// matching the historical materialized decisions.
func copyDecision(d *Decision) Decision {
	return Decision{Activate: clone(d.Activate), Freeze: clone(d.Freeze), Masks: clone(d.Masks), Picks: clone(d.Picks)}
}

// clone copies a scratch list; an empty one comes back nil.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}
