package routing

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// Violation describes why a property check failed, naming the offending
// source/destination pair. A nil *Violation means the property holds.
type Violation struct {
	Property string
	Src, Dst topology.NodeID
	Detail   string
}

// Error implements the error interface so violations can flow through
// error-returning call sites.
func (v *Violation) Error() string {
	return fmt.Sprintf("routing: %s violated for pair (%d -> %d): %s", v.Property, v.Src, v.Dst, v.Detail)
}

// forEachPair invokes fn for every ordered pair of distinct nodes, stopping
// at the first violation.
func forEachPair(net *topology.Network, fn func(s, d topology.NodeID) *Violation) *Violation {
	n := net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if v := fn(topology.NodeID(s), topology.NodeID(d)); v != nil {
				return v
			}
		}
	}
	return nil
}

// CheckComplete verifies the algorithm defines a legal contiguous path for
// every ordered pair of distinct nodes (the algorithm "connects" the
// network).
func CheckComplete(alg Algorithm) *Violation {
	net := alg.Network()
	return forEachPair(net, func(s, d topology.NodeID) *Violation {
		p := alg.Path(s, d)
		if p == nil {
			return &Violation{Property: "complete", Src: s, Dst: d, Detail: "no path defined"}
		}
		if !net.IsPath(s, d, p) {
			return &Violation{Property: "complete", Src: s, Dst: d, Detail: fmt.Sprintf("path %v is not contiguous from source to destination", p)}
		}
		return nil
	})
}

// CheckMinimal verifies every path has length equal to the BFS hop distance
// between its endpoints. Minimality is a hypothesis of Theorem 3.
func CheckMinimal(alg Algorithm) *Violation {
	net := alg.Network()
	dist := net.Distances()
	return forEachPair(net, func(s, d topology.NodeID) *Violation {
		p := alg.Path(s, d)
		if p == nil {
			return &Violation{Property: "minimal", Src: s, Dst: d, Detail: "no path defined"}
		}
		if len(p) != dist[s][d] {
			return &Violation{Property: "minimal", Src: s, Dst: d,
				Detail: fmt.Sprintf("path length %d exceeds shortest distance %d", len(p), dist[s][d])}
		}
		return nil
	})
}

// CheckPrefixClosed verifies Definition 7: if the path from s to d passes
// through an intermediate node m, then the algorithm's path from s to m
// equals the prefix of the s->d path up to the *first* occurrence of m.
func CheckPrefixClosed(alg Algorithm) *Violation {
	net := alg.Network()
	seen := newNodeSet(net.NumNodes())
	return forEachPair(net, func(s, d topology.NodeID) *Violation {
		p := alg.Path(s, d)
		if p == nil {
			return nil // incompleteness is CheckComplete's concern
		}
		seen.clear()
		for i := 1; i < len(p); i++ {
			m := net.Channel(p[i-1]).Dst
			if m == s || !seen.add(m) {
				continue // only the first occurrence defines the prefix
			}
			want := p[:i]
			got := alg.Path(s, m)
			if !slices.Equal(got, want) {
				return &Violation{Property: "prefix-closed", Src: s, Dst: d,
					Detail: fmt.Sprintf("path(%d,%d) = %v but prefix to node %d is %v", s, m, got, m, want)}
			}
		}
		return nil
	})
}

// CheckSuffixClosed verifies Definition 8: if the path from s to d passes
// through an intermediate node m, the algorithm's path from m to d equals
// the suffix of the s->d path from m onward.
//
// The check is strict: the suffix from *every* occurrence of m must match.
// A path that visits the same intermediate node twice produces two suffixes
// of different lengths and therefore always fails, which is consistent with
// the paper's observation that every algorithm realizable in the
// input-channel-independent form N×N -> C is suffix-closed (such algorithms
// can never revisit a node without livelocking). All of the paper's
// constructions are revisit-free, where every reading of Definition 8
// coincides with this one.
func CheckSuffixClosed(alg Algorithm) *Violation {
	net := alg.Network()
	return forEachPair(net, func(s, d topology.NodeID) *Violation {
		p := alg.Path(s, d)
		for i := 1; i < len(p); i++ {
			m := net.Channel(p[i-1]).Dst
			if m == d {
				continue
			}
			want := p[i:]
			got := alg.Path(m, d)
			if !slices.Equal(got, want) {
				return &Violation{Property: "suffix-closed", Src: s, Dst: d,
					Detail: fmt.Sprintf("path(%d,%d) = %v but suffix from node %d (hop %d) is %v", m, d, got, m, i, want)}
			}
		}
		return nil
	})
}

// CheckNoRevisit verifies no path routes a message through the same node
// more than once (the third clause of coherence, Definition 9).
func CheckNoRevisit(alg Algorithm) *Violation {
	net := alg.Network()
	seen := newNodeSet(net.NumNodes())
	return forEachPair(net, func(s, d topology.NodeID) *Violation {
		seen.clear()
		seen.add(s)
		for _, c := range alg.Path(s, d) {
			if nd := net.Channel(c).Dst; !seen.add(nd) {
				return &Violation{Property: "no-revisit", Src: s, Dst: d,
					Detail: fmt.Sprintf("path visits node %d more than once", nd)}
			}
		}
		return nil
	})
}

// CheckRoutingFunc reports whether the algorithm is expressible as a
// routing function of the form R: C×N -> C (Definition 2): the output
// channel must be a function of the input channel and the destination
// alone. A violation names the first conflicting pair. Every oblivious
// algorithm the paper considers is of this form; a conflict means the
// algorithm needs source- or path-dependent state. Injection cannot
// conflict, since each (source, destination) pair has one path.
func CheckRoutingFunc(alg Algorithm) *Violation {
	net := alg.Network()
	n := net.NumNodes()
	next := make([]topology.ChannelID, net.NumChannels()*n) // (in, dst) -> out
	for i := range next {
		next[i] = topology.None
	}
	return forEachPair(net, func(s, d topology.NodeID) *Violation {
		p := alg.Path(s, d)
		for i := 0; i+1 < len(p); i++ {
			in, out := p[i], p[i+1]
			slot := &next[int(in)*n+int(d)]
			if *slot != topology.None && *slot != out {
				return &Violation{Property: "form C×N->C", Src: s, Dst: d,
					Detail: fmt.Sprintf("R(channel %d, dest %d) maps to both channel %d and %d", in, d, *slot, out)}
			}
			*slot = out
		}
		return nil
	})
}

// CheckInputChannelIndependent reports whether the algorithm is realizable
// in the form R: N×N -> C (Corollary 1): the output channel at every node
// depends only on the current node and the destination, not on the input
// channel. Algorithms of this form cannot have unreachable cyclic
// configurations (Corollary 1).
func CheckInputChannelIndependent(alg Algorithm) *Violation {
	net := alg.Network()
	n := net.NumNodes()
	next := make([]topology.ChannelID, n*n) // (current node, dst) -> out
	for i := range next {
		next[i] = topology.None
	}
	return forEachPair(net, func(s, d topology.NodeID) *Violation {
		at := s
		for _, out := range alg.Path(s, d) {
			slot := &next[int(at)*n+int(d)]
			if *slot != topology.None && *slot != out {
				return &Violation{Property: "form N×N->C", Src: s, Dst: d,
					Detail: fmt.Sprintf("at node %d for destination %d the algorithm uses both channel %d and %d", at, d, *slot, out)}
			}
			*slot = out
			at = net.Channel(out).Dst
		}
		return nil
	})
}

// Properties is the result of running every checker on an algorithm.
type Properties struct {
	Complete                bool
	Minimal                 bool
	PrefixClosed            bool
	SuffixClosed            bool
	NoRevisit               bool
	Coherent                bool
	RoutingFuncForm         bool // realizable as R: C×N -> C
	InputChannelIndependent bool // realizable as R: N×N -> C
	Violations              []*Violation
}

// CheckAll runs every property checker and collects the violations.
func CheckAll(alg Algorithm) Properties {
	var props Properties
	record := func(ok *bool, v *Violation) {
		*ok = v == nil
		if v != nil {
			props.Violations = append(props.Violations, v)
		}
	}
	record(&props.Complete, CheckComplete(alg))
	record(&props.Minimal, CheckMinimal(alg))
	record(&props.PrefixClosed, CheckPrefixClosed(alg))
	record(&props.SuffixClosed, CheckSuffixClosed(alg))
	record(&props.NoRevisit, CheckNoRevisit(alg))
	props.Coherent = props.PrefixClosed && props.SuffixClosed && props.NoRevisit
	record(&props.RoutingFuncForm, CheckRoutingFunc(alg))
	record(&props.InputChannelIndependent, CheckInputChannelIndependent(alg))
	return props
}

// String renders the property set compactly for reports.
func (p Properties) String() string {
	mark := func(b bool) byte {
		if b {
			return '+'
		}
		return '-'
	}
	return fmt.Sprintf("complete%c minimal%c prefix%c suffix%c norevisit%c coherent%c CxN%c NxN%c",
		mark(p.Complete), mark(p.Minimal), mark(p.PrefixClosed), mark(p.SuffixClosed),
		mark(p.NoRevisit), mark(p.Coherent), mark(p.RoutingFuncForm), mark(p.InputChannelIndependent))
}

// nodeSet is a set of nodes that clear empties in O(1): a node is in the
// set when its stamp equals the current one.
type nodeSet struct {
	stamp []int
	cur   int
}

func newNodeSet(n int) *nodeSet { return &nodeSet{stamp: make([]int, n), cur: 1} }

func (s *nodeSet) clear() { s.cur++ }

// add inserts v and reports whether it was absent.
func (s *nodeSet) add(v topology.NodeID) bool {
	if s.stamp[v] == s.cur {
		return false
	}
	s.stamp[v] = s.cur
	return true
}
