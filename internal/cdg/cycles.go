package cdg

import (
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
	var cycles []Cycle
	truncated := false
	for _, comp := range g.SCCs() {
		if truncated {
			break
		}
		inComp := make(map[topology.ChannelID]bool, len(comp))
		for _, c := range comp {
			inComp[c] = true
		}
		// Johnson: for each start vertex s (ascending), enumerate cycles
		// whose smallest vertex is s, restricted to vertices >= s in the
		// component.
		for _, s := range comp {
			e := &enumerator{
				g:        g,
				start:    s,
				allowed:  func(c topology.ChannelID) bool { return inComp[c] && c >= s },
				blocked:  make(map[topology.ChannelID]bool),
				blockMap: make(map[topology.ChannelID]map[topology.ChannelID]bool),
				limit:    limit,
			}
			e.cycles = cycles
			e.circuit(s)
			cycles = e.cycles
			if limit > 0 && len(cycles) >= limit {
				truncated = true
				break
			}
		}
	}
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

type enumerator struct {
	g        *Graph
	start    topology.ChannelID
	allowed  func(topology.ChannelID) bool
	blocked  map[topology.ChannelID]bool
	blockMap map[topology.ChannelID]map[topology.ChannelID]bool
	path     []topology.ChannelID
	cycles   []Cycle
	limit    int
}

func (e *enumerator) circuit(v topology.ChannelID) bool {
	if e.limit > 0 && len(e.cycles) >= e.limit {
		return true
	}
	found := false
	e.path = append(e.path, v)
	e.blocked[v] = true
	for _, w := range e.g.Successors(v) {
		if !e.allowed(w) {
			continue
		}
		if w == e.start {
			cyc := make(Cycle, len(e.path))
			copy(cyc, e.path)
			e.cycles = append(e.cycles, cyc.canonical())
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
		for _, w := range e.g.Successors(v) {
			if !e.allowed(w) {
				continue
			}
			if e.blockMap[w] == nil {
				e.blockMap[w] = make(map[topology.ChannelID]bool)
			}
			e.blockMap[w][v] = true
		}
	}
	e.path = e.path[:len(e.path)-1]
	return found
}

func (e *enumerator) unblock(v topology.ChannelID) {
	e.blocked[v] = false
	for w := range e.blockMap[v] {
		delete(e.blockMap[v], w)
		if e.blocked[w] {
			e.unblock(w)
		}
	}
}
