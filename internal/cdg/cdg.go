// Package cdg builds and analyzes channel dependency graphs.
//
// The channel dependency graph (Dally & Seitz 1987) of a routing algorithm
// has one vertex per channel and a directed edge from channel a to channel b
// whenever some message is permitted to use b immediately after a. An
// acyclic dependency graph is sufficient for deadlock freedom; the point of
// Schwiebert's paper is that it is not necessary, even for oblivious
// routing. This package constructs the graph from any routing.Algorithm,
// detects and enumerates cycles (Tarjan strongly connected components and
// Johnson elementary-cycle enumeration), certifies acyclicity by exhibiting
// a topological channel numbering, and exports DOT for visual inspection.
package cdg

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Graph is a channel dependency graph. Build it with New.
type Graph struct {
	net   *topology.Network
	name  string
	adj   [][]topology.ChannelID // deduplicated successor lists, sorted
	edges int
}

// New builds the channel dependency graph of alg by walking the path of
// every ordered (source, destination) pair. Pairs for which the algorithm
// defines no path contribute nothing.
func New(alg routing.Algorithm) *Graph {
	net := alg.Network()
	g := &Graph{
		net:  net,
		name: alg.Name(),
		adj:  make([][]topology.ChannelID, net.NumChannels()),
	}
	n := net.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := alg.Path(topology.NodeID(s), topology.NodeID(d))
			for i := 0; i+1 < len(p); i++ {
				g.adj[p[i]] = append(g.adj[p[i]], p[i+1])
			}
		}
	}
	for from, succ := range g.adj {
		slices.Sort(succ)
		g.adj[from] = slices.Compact(succ)
		g.edges += len(g.adj[from])
	}
	return g
}

// Name returns the name of the routing algorithm the graph was built from.
func (g *Graph) Name() string { return g.name }

// Network returns the underlying interconnection network.
func (g *Graph) Network() *topology.Network { return g.net }

// NumEdges returns the number of distinct dependencies.
func (g *Graph) NumEdges() int { return g.edges }

// Successors returns the channels that may directly follow from. The slice
// is shared; callers must not modify it.
func (g *Graph) Successors(from topology.ChannelID) []topology.ChannelID {
	return g.adj[from]
}

// HasEdge reports whether the graph holds the dependency from -> to.
func (g *Graph) HasEdge(from, to topology.ChannelID) bool {
	_, ok := slices.BinarySearch(g.adj[from], to)
	return ok
}

// Acyclic reports whether the graph has no cycles and, when it does not,
// returns a topological numbering of the channels certifying it: every
// dependency goes from a lower-numbered channel to a higher-numbered one —
// exactly the Dally–Seitz proof obligation. When the graph has a cycle the
// numbering is nil.
func (g *Graph) Acyclic() (bool, []int) {
	n := g.net.NumChannels()
	indeg := make([]int, n)
	for _, succ := range g.adj {
		for _, to := range succ {
			indeg[to]++
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	var queue []topology.ChannelID
	for c := 0; c < n; c++ {
		if indeg[c] == 0 {
			queue = append(queue, topology.ChannelID(c))
		}
	}
	next := 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		order[c] = next
		next++
		for _, to := range g.adj[c] {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if next != n {
		return false, nil
	}
	return true, order
}

// SCCs returns the nontrivial strongly connected components (size >= 2, or
// size 1 with a self-loop — self-loops cannot occur in a CDG built from
// simple paths, but are handled for safety). Channels within a component
// are sorted; components are sorted by smallest member.
func (g *Graph) SCCs() [][]topology.ChannelID {
	n := g.net.NumChannels()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []topology.ChannelID
	var result [][]topology.ChannelID
	counter := 0

	// Iterative Tarjan to avoid deep recursion on large graphs.
	type frame struct {
		v     topology.ChannelID
		child int
	}
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames := []frame{{v: topology.ChannelID(start)}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, topology.ChannelID(start))
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.child < len(g.adj[f.v]) {
				w := g.adj[f.v][f.child]
				f.child++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Post-order: pop the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []topology.ChannelID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) >= 2 || g.hasSelfLoop(comp[0]) {
					sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
					result = append(result, comp)
				}
			}
		}
	}
	sort.Slice(result, func(i, j int) bool { return result[i][0] < result[j][0] })
	return result
}

func (g *Graph) hasSelfLoop(c topology.ChannelID) bool {
	return g.HasEdge(c, c)
}

// DOT renders the dependency graph in Graphviz format, highlighting the
// channels that belong to nontrivial strongly connected components.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.name)
	inCycle := make([]bool, g.net.NumChannels())
	for _, comp := range g.SCCs() {
		for _, c := range comp {
			inCycle[c] = true
		}
	}
	for _, c := range g.net.Channels() {
		attrs := ""
		if inCycle[c.ID] {
			attrs = " color=red style=bold"
		}
		fmt.Fprintf(&b, "  c%d [label=%q%s];\n", c.ID, c.String(), attrs)
	}
	for from, succ := range g.adj {
		for _, to := range succ {
			attrs := ""
			if inCycle[from] && inCycle[to] {
				attrs = " [color=red]"
			}
			fmt.Fprintf(&b, "  c%d -> c%d%s;\n", from, to, attrs)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
