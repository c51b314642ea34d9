package core

import (
	"repro/internal/routing"
	"repro/internal/sim"
)

// ConfigScenario instantiates a candidate configuration as a concrete
// simulation scenario: one message per member, routed by the algorithm
// from the member's source to its destination, with length equal to the
// member's arc so the message can hold exactly its run of cycle channels.
// The scenario is what the exhaustive model checker (internal/mcheck)
// explores when Options.Search is set, and what tests use to cross-check
// the static Section 5 classification against state-space search.
//
// The cross-check is single-instance: it decides reachability for this
// message set (one copy per member), which matches the paper's Definition
// 6 configurations but does not rule out deadlocks that need interposed
// extra copies — those are covered by the Theorem 4 blockability screen in
// the static classifier.
func ConfigScenario(alg routing.Algorithm, cfg Configuration) sim.Scenario {
	sc := sim.Scenario{Name: "config-crosscheck", Net: alg.Network()}
	for j := range cfg.Len() {
		m := cfg.Member(j)
		sc.Msgs = append(sc.Msgs, sim.MessageSpec{
			Src:    m.Src,
			Dst:    m.Dst,
			Length: len(m.Arc),
			Path:   alg.Path(m.Src, m.Dst),
		})
	}
	return sc
}
