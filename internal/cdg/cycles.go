package cdg

import (
	"slices"
	"sort"

	"repro/internal/topology"
)

// Cycle is one elementary circuit of the dependency graph: a sequence of
// distinct channels c0, c1, ..., ck-1 with a dependency from each ci to
// c(i+1) mod k. Cycles are canonicalized to start at their smallest channel.
type Cycle []topology.ChannelID

// canonical rotates the cycle so the smallest channel comes first.
func (c Cycle) canonical() Cycle {
	if len(c) == 0 {
		return c
	}
	min := 0
	for i, v := range c {
		if v < c[min] {
			min = i
		}
	}
	out := make(Cycle, 0, len(c))
	out = append(out, c[min:]...)
	out = append(out, c[:min]...)
	return out
}

// Contains reports whether the cycle includes the channel.
func (c Cycle) Contains(ch topology.ChannelID) bool {
	for _, v := range c {
		if v == ch {
			return true
		}
	}
	return false
}

// Cycles enumerates the elementary cycles of the graph using Johnson's
// algorithm, running within each strongly connected component. At most
// limit cycles are returned (limit <= 0 means no bound); the second result
// reports whether enumeration stopped early because the limit was reached.
// Cycles are returned in canonical form, sorted by (length, lexicographic).
func (g *Graph) Cycles(limit int) ([]Cycle, bool) {
	n := g.net.NumChannels()
	e := &enumerator{
		g:       g,
		comp:    make([]int, n),
		blocked: make([]bool, n),
		b:       make([][]topology.ChannelID, n),
		limit:   limit,
	}
	truncated := false
	for i, comp := range g.SCCs() {
		if truncated {
			break
		}
		e.stamp = i + 1
		for _, c := range comp {
			e.comp[c] = e.stamp
		}
		// Johnson: for each start vertex s (ascending), enumerate cycles
		// whose smallest vertex is s, restricted to vertices >= s in the
		// component.
		for _, s := range comp {
			for _, c := range comp {
				e.blocked[c] = false
				e.b[c] = e.b[c][:0]
			}
			e.start = s
			e.circuit(s)
			if limit > 0 && len(e.cycles) >= limit {
				truncated = true
				break
			}
		}
	}
	cycles := e.cycles
	if limit > 0 && len(cycles) > limit {
		cycles = cycles[:limit]
	}
	sort.Slice(cycles, func(i, j int) bool {
		if len(cycles[i]) != len(cycles[j]) {
			return len(cycles[i]) < len(cycles[j])
		}
		a, b := cycles[i], cycles[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return cycles, truncated
}

// enumerator holds Johnson's state over one Cycles call. comp[c] equals
// stamp for the channels of the component being enumerated; b[w] is
// Johnson's B-list, the blocked channels to unblock when w is unblocked.
type enumerator struct {
	g       *Graph
	start   topology.ChannelID
	comp    []int
	stamp   int
	blocked []bool
	b       [][]topology.ChannelID
	path    []topology.ChannelID
	cycles  []Cycle
	limit   int
}

// allowed reports whether w lies in the current component at or above the
// start vertex.
func (e *enumerator) allowed(w topology.ChannelID) bool {
	return e.comp[w] == e.stamp && w >= e.start
}

func (e *enumerator) circuit(v topology.ChannelID) bool {
	if e.limit > 0 && len(e.cycles) >= e.limit {
		return true
	}
	found := false
	e.path = append(e.path, v)
	e.blocked[v] = true
	for _, w := range e.g.adj[v] {
		if !e.allowed(w) {
			continue
		}
		if w == e.start {
			e.cycles = append(e.cycles, Cycle(e.path).canonical())
			found = true
			if e.limit > 0 && len(e.cycles) >= e.limit {
				break
			}
			continue
		}
		if !e.blocked[w] {
			if e.circuit(w) {
				found = true
			}
			if e.limit > 0 && len(e.cycles) >= e.limit {
				break
			}
		}
	}
	if found {
		e.unblock(v)
	} else {
		for _, w := range e.g.adj[v] {
			if e.allowed(w) && !slices.Contains(e.b[w], v) {
				e.b[w] = append(e.b[w], v)
			}
		}
	}
	e.path = e.path[:len(e.path)-1]
	return found
}

func (e *enumerator) unblock(v topology.ChannelID) {
	e.blocked[v] = false
	for len(e.b[v]) > 0 {
		w := e.b[v][len(e.b[v])-1]
		e.b[v] = e.b[v][:len(e.b[v])-1]
		if e.blocked[w] {
			e.unblock(w)
		}
	}
}
