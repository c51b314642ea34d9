package papernets

import "fmt"

// Figure1 builds the paper's Section 4 Cyclic Dependency network: four
// messages M1..M4 from Src share the channel cs = Src -> N* and form the
// unreachable cycle. Parameters follow the paper's Section 6 recap of
// Figure 1: d1 = d3 = 2, d2 = d4 = 3 channels from Src to the cycle, and
// arc lengths (channels each message must hold) c1 = c3 = 3, c2 = c4 = 4,
// with minimal message lengths l_i = c_i. M1 routes through D4 toward D1,
// M2 through D1 toward D2, M3 through D2 toward D3, and M4 through D3
// toward D4, closing the dependency cycle.
func Figure1() *Net {
	pn := GenK(1)
	pn.Name = "figure1"
	pn.Scenario.Name = "figure1"
	return pn
}

// GenK builds a Section 6 family of Figure 1 generalizations: four
// messages share one channel outside a ring, with approach distances
// d1 = d3 = 2, d2 = d4 = k + 2, arcs c1 = c3 = k + 2, c2 = c4 = k + 3, and
// minimal lengths l_i = c_i. The long-approach messages M2 and M4 start k
// channels farther from the ring than M1 and M3; only M1's and M3's arcs
// are k channels longer than their approach, while M2's and M4's are one
// channel longer. GenK(1) is exactly Figure 1.
//
// Under tight synchrony every instance is deadlock-free. With a total
// budget of adversarial stall cycles (mcheck's FreezeInTransitOnly),
// exhaustive search finds the smallest deadlocking budget is exactly k for
// k = 1..5, with a witness that freezes one message k cycles. The family's
// tolerance then saturates: Gen(6), Gen(7), Gen(8) and Gen(12) all
// deadlock at budget 5, because the adversary can split the delay across
// M2 and M4. So GenK tolerates min(k, 5) total stall cycles, not an
// arbitrarily large skew; TestGenKMinimalStall pins both regimes.
func GenK(k int) *Net {
	if k < 1 {
		panic("papernets: GenK requires k >= 1")
	}
	return Build(fmt.Sprintf("gen%d", k), []Entrant{
		{Shared: true, D: 2, C: k + 2, Label: "M1"},
		{Shared: true, D: k + 2, C: k + 3, Label: "M2"},
		{Shared: true, D: 2, C: k + 2, Label: "M3"},
		{Shared: true, D: k + 2, C: k + 3, Label: "M4"},
	})
}

// Figure2 builds the Theorem 4 configuration: a channel outside the cycle
// shared by exactly two messages. The theorem proves every such cycle is a
// reachable deadlock — injecting the longer-approach message first and the
// other immediately after forms the Definition 6 configuration. The
// specific arc lengths mirror the halves of Figure 1.
func Figure2() *Net {
	return Build("figure2", []Entrant{
		{Shared: true, D: 3, C: 4, Label: "M1"},
		{Shared: true, D: 2, C: 3, Label: "M2"},
	})
}

// ThreeSharerParams parameterizes a pure three-sharer configuration for
// Theorem 5. The three messages are given in ring order; their D values
// determine the paper's M1/M2/M3 labeling (most/middle/fewest channels
// from cs to the cycle).
type ThreeSharerParams struct {
	// D[i] and C[i] are the approach distance (counting cs) and arc
	// length of the i-th message in ring order.
	D [3]int
	C [3]int
}

// ThreeSharer builds a pure three-sharer Theorem 5 network.
func ThreeSharer(name string, p ThreeSharerParams) *Net {
	ents := make([]Entrant, 3)
	for i := 0; i < 3; i++ {
		ents[i] = Entrant{Shared: true, D: p.D[i], C: p.C[i], Label: fmt.Sprintf("S%d", i+1)}
	}
	return Build(name, ents)
}

// Figure3 builds one of the paper's six Figure 3 configurations, selected
// by letter 'a' through 'f'. (a) and (b) are false resource cycles —
// Theorem 5's eight conditions hold and no deadlock is reachable; (c)
// through (f) violate specific conditions and deadlock:
//
//	(a) unreachable: every message uses more channels within the cycle
//	    than from the shared channel to the cycle, and the approach
//	    distances leave no room to stretch the shared-channel sequence.
//	(b) unreachable: the longest-approach message sits exactly at the
//	    blockability boundary — it can be delayed at its cycle entry, but
//	    never long enough to enable the deadlock.
//	(c) deadlock: condition 4 fails — the longest-approach message uses
//	    at least as many channels from cs to the cycle as within it, so an
//	    interposed copy of its ring predecessor blocks it outside the
//	    cycle (the paper's Theorem 4 reduction).
//	(d) deadlock: condition 6 fails — the middle message's approach
//	    exceeds its arc, making it blockable outside the cycle.
//	(e) deadlock: condition 7 fails — the longest approach is so long
//	    that the shared-channel sequence lets the shortest message arrive
//	    in time to block it (d1 >= d3 + c2).
//	(f) deadlock: a fourth message that does not use the shared channel
//	    joins the cycle, breaking the pure three-sharer preconditions.
//
// The concrete parameters were fixed by exhaustively model-checking the
// three-sharer family (see the papernets and unreachable test suites) and
// selecting instances whose condition-violation pattern matches each
// sub-figure's narrative in the paper.
func Figure3(letter byte) *Net {
	switch letter {
	case 'a':
		return ThreeSharer("figure3a", figure3aParams)
	case 'b':
		return ThreeSharer("figure3b", figure3bParams)
	case 'c':
		return ThreeSharer("figure3c", figure3cParams)
	case 'd':
		return ThreeSharer("figure3d", figure3dParams)
	case 'e':
		return ThreeSharer("figure3e", figure3eParams)
	case 'f':
		return Build("figure3f", figure3fEntrants)
	}
	panic(fmt.Sprintf("papernets: Figure3(%q): letter must be 'a'..'f'", letter))
}

// The pinned Figure 3 instances. Ring order is the order of array entries;
// see Figure3 for the narrative each realizes.
var (
	// (a): ring order M1, M3, M2 (D = 4, 2, 3); every C_i comfortably
	// exceeds the approach distances: all eight conditions hold.
	figure3aParams = ThreeSharerParams{D: [3]int{4, 2, 3}, C: [3]int{5, 4, 4}}
	// (b): the boundary case: c1 = d1 and c3 = d3 exactly — every
	// condition still holds (with equality) and the cycle remains
	// unreachable.
	figure3bParams = ThreeSharerParams{D: [3]int{4, 2, 3}, C: [3]int{4, 2, 4}}
	// (c): condition 4 fails: the longest-approach message (d1 = 5) holds
	// only c1 = 3 < 5 channels in the cycle, so it can be blocked outside.
	figure3cParams = ThreeSharerParams{D: [3]int{5, 2, 3}, C: [3]int{3, 4, 4}}
	// (d): condition 6 fails: the middle message's approach (d2 = 4)
	// exceeds its arc (c2 = 3).
	figure3dParams = ThreeSharerParams{D: [3]int{5, 3, 4}, C: [3]int{5, 4, 3}}
	// (e): condition 7 fails: d1 = 6 >= d3 + c2 = 2 + 4.
	figure3eParams = ThreeSharerParams{D: [3]int{6, 2, 3}, C: [3]int{6, 4, 4}}
	// (f): the (a) parameters plus a private fourth entrant that does not
	// use the shared channel.
	figure3fEntrants = []Entrant{
		{Shared: true, D: 4, C: 5, Label: "S1"},
		{Shared: true, D: 2, C: 4, Label: "S2"},
		{Shared: true, D: 3, C: 4, Label: "S3"},
		{Shared: false, D: 2, C: 3, Label: "S4"},
	}
)
