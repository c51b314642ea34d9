package mcheck

// State-space reduction for Search: partial-order reduction over
// commuting adversarial decisions, and symmetry reduction over topology
// automorphisms. Both are opt-in via SearchOptions.Reduction and both
// preserve the verdict exactly (see DESIGN §5 for the soundness
// arguments); with Reduction zero the engine is byte-identical to the
// unreduced one.

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Reduction selects the state-space reductions a Search applies. It is a
// bit set; RedNone (the zero value) explores the full unreduced space.
type Reduction uint8

const (
	// RedPOR enables partial-order reduction: adversarial decisions that
	// provably lead to a state dominated by another enumerated decision's
	// successor — activating a message that cannot inject this cycle
	// (sleep-set filter), freezing a message the same decision just
	// activated, or granting an activated message's entry channel to a
	// rival — are pruned before the simulator is cloned, plus a post-step
	// backstop that discards successors whose activation turned out
	// futile. Verdict-preserving for oblivious and adaptive scenarios
	// alike, but gated off automatically when any message routes
	// adaptively (the domination argument needs fixed entry channels).
	RedPOR Reduction = 1 << iota
	// RedSymmetry enables canonical-state symmetry reduction: the
	// visited set keys on sim.CanonicalEncodeTo over the scenario's
	// symmetries (topology automorphisms that map the message set onto
	// itself), storing one representative per orbit. Gated off
	// automatically for adaptive scenarios and for same-cycle-handoff
	// configurations with buffer depth > 1 (where movement order can
	// depend on message IDs).
	RedSymmetry

	// RedNone explores the full state space (the default).
	RedNone Reduction = 0
	// RedAll enables every reduction.
	RedAll = RedPOR | RedSymmetry
)

// POR reports whether partial-order reduction is enabled.
func (r Reduction) POR() bool { return r&RedPOR != 0 }

// Symmetry reports whether symmetry reduction is enabled.
func (r Reduction) Symmetry() bool { return r&RedSymmetry != 0 }

// String renders the reduction set ("none", "por", "sym", "por+sym").
func (r Reduction) String() string {
	var parts []string
	if r.POR() {
		parts = append(parts, "por")
	}
	if r.Symmetry() {
		parts = append(parts, "sym")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseReduction parses a -reduction flag value: "none" (or empty),
// "por", "sym" (or "symmetry"), "all" (or "por+sym").
func ParseReduction(s string) (Reduction, error) {
	r := RedNone
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
	case "por":
		r = RedPOR
	case "sym", "symmetry":
		r = RedSymmetry
	case "all", "por+sym", "sym+por":
		r = RedAll
	default:
		return RedNone, fmt.Errorf("mcheck: unknown reduction %q (want none, por, sym, all)", s)
	}
	return r, nil
}

// effectiveReduction applies the scenario gating: reductions whose
// soundness argument does not cover the scenario's features are cleared,
// so SearchResult.Reduction always reports what actually ran.
//
//   - Any adaptive message disables both reductions: POR's domination
//     argument identifies an uninjected message with a single entry
//     channel, and symmetry would have to map dynamically materialized
//     routes.
//   - Same-cycle handoff with buffer depth > 1 disables symmetry: the
//     movement pass resolves handoff chains in message-ID order, and
//     with deeper buffers a deferred owner can both release and acquire,
//     making one cycle's outcome depend on the (relabeled) IDs. At
//     depth 1 the deferral cannot fire (a predicted release never counts
//     an owner's own freed-channel acquisition), so ID order is
//     immaterial and the quotient is exact.
func effectiveReduction(sc sim.Scenario, r Reduction) Reduction {
	if r == RedNone {
		return r
	}
	for _, m := range sc.Msgs {
		if m.Route != nil {
			return RedNone
		}
	}
	if r.Symmetry() && sc.Cfg.SameCycleHandoff && sc.Cfg.BufferDepth > 1 {
		r &^= RedSymmetry
	}
	return r
}

// Caps for the once-per-search symmetry derivation. Papernets groups
// have 2-4 automorphisms and a single surviving scenario symmetry;
// regular topologies (rings, hypercubes) can have many more, and the
// canonical encoding costs one permuted-encode pass per kept symmetry
// per state, so the set is bounded.
const (
	symmetryAutoLimit = 64
	symmetryPermLimit = 32
)

// scenarioSymmetries derives the scenario's usable symmetries: pairs of
// a topology automorphism π and a message bijection σ with
// spec_{σ(i)} = π·spec_i — same length, σ(i)'s path the element-wise
// π-image of i's path. InjectAt and labels are ignored: Search holds
// every message at its source and normalizes injection times to zero, so
// they are not part of the searched state. Identity pairs are dropped
// (they cannot distinguish orbits); the identity encoding is always a
// canonicalization candidate anyway.
//
// The result may be any subset of the scenario's full symmetry group —
// soundness does not require closure, only that each returned
// permutation really is a symmetry — so the caps above are safe.
func scenarioSymmetries(sc sim.Scenario) []sim.Permutation {
	n := len(sc.Msgs)
	for _, m := range sc.Msgs {
		if m.Route != nil {
			return nil
		}
	}
	autos, _ := sc.Net.Automorphisms(symmetryAutoLimit)
	var perms []sim.Permutation

	sigma := make([]int, n)
	used := make([]bool, n)
	for ai := range autos {
		a := &autos[ai]
		chanIdentity := true
		for c, d := range a.Chans {
			if int(d) != c {
				chanIdentity = false
				break
			}
		}
		var match func(i int)
		match = func(i int) {
			if len(perms) >= symmetryPermLimit {
				return
			}
			if i == n {
				msgIdentity := true
				for k, v := range sigma {
					if k != v {
						msgIdentity = false
						break
					}
				}
				if msgIdentity && chanIdentity {
					return
				}
				p := sim.Permutation{
					MsgAt:  make([]int, n),
					ChanTo: append([]topology.ChannelID(nil), a.Chans...),
				}
				for orig, img := range sigma {
					p.MsgAt[img] = orig
				}
				perms = append(perms, p)
				return
			}
			mi := &sc.Msgs[i]
			for j := 0; j < n; j++ {
				if used[j] {
					continue
				}
				mj := &sc.Msgs[j]
				if mj.Length != mi.Length || len(mj.Path) != len(mi.Path) {
					continue
				}
				if a.Nodes[mi.Src] != mj.Src || a.Nodes[mi.Dst] != mj.Dst {
					continue
				}
				ok := true
				for k, c := range mi.Path {
					if a.Chans[c] != mj.Path[k] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				sigma[i] = j
				used[j] = true
				match(i + 1)
				used[j] = false
			}
		}
		match(0)
	}
	return perms
}
