package obsv

import (
	"slices"
	"strconv"

	"repro/internal/topology"
)

// WaitGraph is the Definition 6 wait-for graph: an edge m -> o over
// channel c says message m is blocked waiting for c, which message o
// holds. In a wormhole network a blocked message waits for exactly one
// channel — the next one on its path — so the graph is functional (one
// outgoing edge per blocked message) and cycle detection is a pointer
// chase. The graph is slice-indexed by message ID.
//
// One graph serves every consumer: waitfor.Build fills it from a
// simulator state for Find and FindLocal; the simulator keeps its
// last-reported edges in one to diff wait transitions; DOTSink maintains
// one from the event stream. The zero value is an empty graph. Cycle
// queries reuse scratch space in the graph, so a WaitGraph is not safe
// for concurrent use, even by readers.
type WaitGraph struct {
	nodes []waitNode
	stack []int // Cycles scratch: the current chase
}

// waitNode is one message's slot in the graph. Its fields are 32-bit,
// like the simulator's message IDs, to keep the dense graph small.
type waitNode struct {
	ch    int32 // channel waited for; topology.None when not blocked
	owner int32 // holder of ch
	mark  int32 // Cycles scratch: 1 + the chase start that reached it
	seen  bool  // ever appeared as a waiter or an owner
	cycle bool  // inCycles scratch: on a closed cycle
}

// none is waitNode.ch of a message that waits for nothing.
const none = int32(topology.None)

// Reset empties the graph, keeping its storage, and sizes it for message
// IDs below messages. Larger IDs still grow it on demand.
func (g *WaitGraph) Reset(messages int) {
	g.nodes = g.nodes[:0]
	g.grow(messages - 1)
}

func (g *WaitGraph) grow(id int) {
	if id < len(g.nodes) {
		return
	}
	g.nodes = slices.Grow(g.nodes, id+1-len(g.nodes))
	for len(g.nodes) <= id {
		g.nodes = append(g.nodes, waitNode{ch: none, owner: -1})
	}
}

// Len returns the bound on the message IDs the graph has slots for.
func (g *WaitGraph) Len() int { return len(g.nodes) }

// Wait records that msg is blocked waiting for ch, held by owner,
// replacing msg's previous edge.
func (g *WaitGraph) Wait(msg int, ch topology.ChannelID, owner int) {
	g.grow(max(msg, owner))
	n := &g.nodes[msg]
	n.ch, n.owner, n.seen = int32(ch), int32(owner), true
	g.nodes[owner].seen = true
}

// Unwait clears msg's outgoing edge. The message stays seen.
func (g *WaitGraph) Unwait(msg int) {
	if msg < len(g.nodes) {
		g.nodes[msg].ch, g.nodes[msg].owner = none, -1
	}
}

// WaitsFor returns the channel msg waits for and that channel's holder;
// ok is false when msg is not blocked.
func (g *WaitGraph) WaitsFor(msg int) (ch topology.ChannelID, owner int, ok bool) {
	if msg >= len(g.nodes) || g.nodes[msg].ch == none {
		return topology.None, -1, false
	}
	return topology.ChannelID(g.nodes[msg].ch), int(g.nodes[msg].owner), true
}

// Apply updates the graph from one trace event: wait-for edge add and
// delete. Other kinds are ignored.
func (g *WaitGraph) Apply(e Event) {
	switch e.Kind {
	case KindWaitEdgeAdd:
		g.Wait(e.Msg, e.Ch, e.Owner)
	case KindWaitEdgeDel:
		g.Unwait(e.Msg)
	}
}

// Cycles enumerates the closed wait-for cycles, each exactly once, until
// visit returns false. It chases the graph from every blocked message in
// ascending ID order; a chase that closes a new cycle yields its members
// in edge order, starting where the chase entered the cycle: cycle[i]
// waits for a channel held by cycle[(i+1) % len]. The slice is valid only
// during the call.
func (g *WaitGraph) Cycles(visit func(cycle []int) bool) {
	for i := range g.nodes {
		g.nodes[i].mark = 0
	}
	if cap(g.stack) < len(g.nodes) {
		g.stack = make([]int, 0, len(g.nodes)) // no chase is longer
	}
	for start := range g.nodes {
		if g.nodes[start].ch == none || g.nodes[start].mark != 0 {
			continue
		}
		stack := g.stack[:0]
		for at := start; ; {
			n := &g.nodes[at]
			if n.mark != 0 {
				if int(n.mark) == start+1 { // closed a cycle on this chase
					i := len(stack) - 1
					for stack[i] != at {
						i--
					}
					if !visit(stack[i:]) {
						g.stack = stack
						return
					}
				}
				break
			}
			n.mark = int32(start + 1)
			stack = append(stack, at)
			if n.ch == none {
				break
			}
			at = int(n.owner)
		}
		g.stack = stack
	}
}

// inCycles marks the cycle flag of every node on a closed cycle.
func (g *WaitGraph) inCycles() {
	for i := range g.nodes {
		g.nodes[i].cycle = false
	}
	g.Cycles(func(cycle []int) bool {
		for _, m := range cycle {
			g.nodes[m].cycle = true
		}
		return true
	})
}

// AppendDOT appends the graph as one Graphviz digraph with the given
// title: a node per seen message and an edge per blocked one, labelled
// with the waited-for channel. Members of closed cycles and the edges
// between them are marked red and bold, cdgtool's conventions.
func (g *WaitGraph) AppendDOT(b []byte, title string) []byte {
	const red = " color=red style=bold"
	g.inCycles()
	b = append(b, "digraph "...)
	b = strconv.AppendQuote(b, title)
	b = append(b, " {\n  rankdir=LR;\n"...)
	for id, n := range g.nodes {
		if !n.seen {
			continue
		}
		b = append(b, "  m"...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ` [label="m`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, '"')
		if n.cycle {
			b = append(b, red...)
		}
		b = append(b, "];\n"...)
	}
	for id, n := range g.nodes {
		if n.ch == none {
			continue
		}
		b = append(b, "  m"...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, " -> m"...)
		b = strconv.AppendInt(b, int64(n.owner), 10)
		b = append(b, ` [label="c`...)
		b = strconv.AppendInt(b, int64(n.ch), 10)
		b = append(b, '"')
		if n.cycle && g.nodes[n.owner].cycle {
			b = append(b, red...)
		}
		b = append(b, "];\n"...)
	}
	return append(b, "}\n"...)
}
