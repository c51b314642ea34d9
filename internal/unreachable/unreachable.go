// Package unreachable decides whether a cyclic channel-dependency
// configuration is a reachable deadlock or a false resource cycle
// (unreachable configuration), implementing the Section 5 theory of
// Schwiebert (SPAA '97).
//
// # The timing model
//
// A cyclic configuration consists of entrants (messages) m_1 ... m_n in
// ring order. Entrant i approaches the ring over d_i channels (counting
// the shared channel for entrants that use one), then holds an arc of c_i
// ring channels, and is blocked exactly at the next entrant's first ring
// channel. Messages have the paper's minimal length l_i = c_i and flit
// buffers hold one flit, which the paper shows is the hardest case. The
// routers use the aggressive handoff of the paper's proofs: a channel
// whose tail departs in cycle t is acquirable in cycle t, and a header
// arriving at a free channel in the same cycle as a competitor may lose
// the tie (Section 3's adversarial arbitration).
//
// Under this model, if entrant m acquires its first approach channel at
// time x_m, then
//
//   - m's header requests its blocking channel at x_m + d_m + c_m;
//   - m's successor b occupies that channel from x_b + d_b onward
//     (forever, if b is itself blocked in time — the worm length equals
//     the arc length, so a blocked worm covers its arc exactly);
//   - consecutive users of a shared channel are spaced by the message
//     length: x_next >= x_prev + c_prev.
//
// The configuration is a reachable deadlock if and only if the resulting
// difference-constraint system is feasible for some ordering of the
// sharers on each shared channel:
//
//	x_b - x_m <= d_m + c_m - d_b        for every ring pair (m, b)
//	x_t - x_s >= c_s                    for cs-consecutive sharers (s, t)
//
// Feasibility of a difference-constraint system is the absence of a
// negative cycle in its constraint graph (Bellman–Ford).
//
// The paper's Theorems 2-5 are corollaries of this criterion, and the
// package exposes them directly: Theorem 2 (no shared channel outside the
// cycle ⇒ always reachable), Theorem 4 (exactly two sharers ⇒ always
// reachable), and Theorem 5's eight conditions for three sharers. The
// model checker in internal/mcheck provides independent ground truth; the
// test suite verifies the criterion against it across entire parameter
// families.
package unreachable

import (
	"fmt"
	"slices"
)

// Entrant is one message of a cyclic configuration, in ring order.
type Entrant struct {
	// D is the number of channels from the message's source to its ring
	// entry, counting the shared channel if Shared.
	D int
	// C is the number of ring channels the message holds (= its minimal
	// length in flits).
	C int
	// Shared reports whether the message's approach uses the shared
	// channel.
	Shared bool
}

// Config is a cyclic configuration: entrants in ring order, where entrant
// i is blocked at entrant (i+1)%n's first ring channel. At most one shared
// channel is supported, used by every entrant with Shared = true — the
// shape of all of the paper's constructions.
type Config struct {
	Entrants []Entrant
}

// Verdict classifies a configuration.
type Verdict int

const (
	// FalseResourceCycle: the configuration is unreachable — no schedule
	// of injections and arbitration outcomes produces the deadlock.
	FalseResourceCycle Verdict = iota
	// DeadlockReachable: some schedule produces the Definition 6 deadlock.
	DeadlockReachable
)

// String renders the verdict.
func (v Verdict) String() string {
	if v == FalseResourceCycle {
		return "false-resource-cycle"
	}
	return "deadlock-reachable"
}

// Witness is the schedule certificate for a reachable deadlock: the order
// in which the sharers acquire the shared channel and consistent
// acquisition times for every entrant.
type Witness struct {
	// SharedOrder lists the indices of shared entrants in shared-channel
	// acquisition order.
	SharedOrder []int
	// Times[i] is the cycle entrant i acquires its first approach channel.
	Times []int
}

// Classify decides reachability of the configuration by checking the
// difference-constraint system over every ordering of the sharers, in the
// order forEachOrder visits them, and returns a witness for the first
// feasible one.
func Classify(cfg Config) (Verdict, *Witness) {
	n := len(cfg.Entrants)
	if n < 2 {
		panic("unreachable: configuration needs at least two entrants")
	}
	// Systems of up to 16 entrants solve in stack scratch: a ring edge and
	// a distance per entrant, and up to 7 sequencing edges.
	var (
		sharerBuf [8]int
		edgeBuf   [24]edge
		distBuf   [16]int
	)
	sharers := sharerBuf[:0]
	for i, e := range cfg.Entrants {
		if e.Shared {
			sharers = append(sharers, i)
		}
	}
	sys := system{cfg: cfg, edges: edgeBuf[:0], dist: distBuf[:]}
	if m := n + max(len(sharers)-1, 0); m > len(edgeBuf) {
		sys.edges = make([]edge, 0, m)
	}
	if n > len(distBuf) {
		sys.dist = make([]int, n)
	}
	sys.dist = sys.dist[:n]
	// Ring blocking: for pair (m, b = next(m)): x_b - x_m <= d_m + c_m - d_b.
	for m := 0; m < n; m++ {
		b := (m + 1) % n
		em, eb := cfg.Entrants[m], cfg.Entrants[b]
		sys.edges = append(sys.edges, edge{u: m, v: b, w: em.D + em.C - eb.D})
	}
	if !forEachOrder(sharers, func() bool { return sys.feasible(sharers) }) {
		return FalseResourceCycle, nil
	}
	// The witness carries its order and times in one allocation when
	// they fit.
	k := len(sharers)
	var (
		w   *Witness
		buf []int
	)
	if k+n <= len(witnessBuf{}.buf) {
		wb := new(witnessBuf)
		w, buf = &wb.Witness, wb.buf[:k+n]
	} else {
		w, buf = new(Witness), make([]int, k+n)
	}
	w.Times = buf[k:]
	if k > 0 {
		w.SharedOrder = buf[:k:k]
		copy(w.SharedOrder, sharers)
	}
	minDist := slices.Min(sys.dist)
	for i, d := range sys.dist {
		w.Times[i] = d - minDist
	}
	return DeadlockReachable, w
}

// witnessBuf is a Witness with room for the order and times of up to
// eight entrants, all of them sharers.
type witnessBuf struct {
	Witness
	buf [16]int
}

// edge is the difference constraint x_v - x_u <= w.
type edge struct {
	u, v, w int
}

// system is one configuration's constraint graph: its ring-blocking
// edges, with capacity for the sequencing edges of one sharer order after
// them, and the Bellman–Ford distances.
type system struct {
	cfg   Config
	edges []edge
	dist  []int
}

// feasible solves the difference-constraint system for one shared-channel
// ordering. Constraints of the form x_v - x_u <= w become edges u -> v of
// weight w; the system is feasible iff the graph has no negative cycle,
// and then the shortest-path distances from a virtual source, left in
// dist, are a concrete solution up to a shift.
func (s *system) feasible(order []int) bool {
	n := len(s.cfg.Entrants)
	edges := s.edges
	// Shared-channel sequencing: x_t - x_s >= c_s, i.e. x_s - x_t <= -c_s.
	for j := 0; j+1 < len(order); j++ {
		a, b := order[j], order[j+1]
		edges = append(edges, edge{u: b, v: a, w: -s.cfg.Entrants[a].C})
	}
	// Bellman–Ford with an implicit virtual source (all distances start at
	// 0). A pass that still relaxes after n-1 full passes proves a
	// negative cycle, i.e. infeasibility.
	dist := s.dist
	clear(dist)
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.u] + e.w; d < dist[e.v] {
				dist[e.v] = d
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter == n-1 {
			return false // still relaxing after n passes: negative cycle
		}
	}
	return true
}

// forEachOrder permutes ids in place through every ordering, by swaps —
// the identity first, then the rest of the orders that keep ids[0] in
// front, and so on — and calls visit at each; the empty and singleton
// cases yield one ordering. It stops at the first ordering visit accepts
// and returns true, leaving ids in that order; otherwise ids ends as it
// began. visit reads the order from ids, so ids stays off the heap.
func forEachOrder(ids []int, visit func() bool) bool {
	if len(ids) > 8 {
		panic(fmt.Sprintf("unreachable: refusing to permute %d sharers", len(ids)))
	}
	return permute(ids, 0, visit)
}

func permute(work []int, k int, visit func() bool) bool {
	if k == len(work) {
		return visit()
	}
	for i := k; i < len(work); i++ {
		work[k], work[i] = work[i], work[k]
		if permute(work, k+1, visit) {
			return true
		}
		work[k], work[i] = work[i], work[k]
	}
	return false
}
