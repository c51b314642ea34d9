// Package topology models interconnection networks as strongly connected
// directed multigraphs, following Definition 1 of Schwiebert (SPAA '97):
// vertices are processors (nodes) and arcs are unidirectional channels that
// connect neighboring processors. Multiple channels — for example several
// virtual channels multiplexed over one physical link — may connect the same
// ordered pair of nodes.
//
// The package provides constructors for the standard regular topologies used
// throughout the wormhole-routing literature (rings, k-ary n-meshes and tori,
// hypercubes, stars) as well as a general builder for the irregular custom
// networks the paper's constructions require (Figures 1–3 and the Section 6
// generalization).
package topology

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a processor in a Network. IDs are dense, starting at 0,
// in order of insertion.
type NodeID int

// ChannelID identifies a unidirectional channel in a Network. IDs are dense,
// starting at 0, in order of insertion.
type ChannelID int

// None is the sentinel returned when no channel applies, e.g. by routing
// functions when a message has reached its destination.
const None ChannelID = -1

// Channel is a unidirectional communication channel from Src to Dst,
// optionally one of several virtual channels (VC) sharing the same physical
// link. Label is purely descriptive and appears in diagnostics and DOT
// output.
type Channel struct {
	ID    ChannelID
	Src   NodeID
	Dst   NodeID
	VC    int
	Label string
}

// String returns a compact human-readable description of the channel.
func (c Channel) String() string {
	if c.Label != "" {
		return c.Label
	}
	if c.VC != 0 {
		return fmt.Sprintf("c%d(%d->%d.v%d)", c.ID, c.Src, c.Dst, c.VC)
	}
	return fmt.Sprintf("c%d(%d->%d)", c.ID, c.Src, c.Dst)
}

// Node is a processor with an optional descriptive label.
type Node struct {
	ID    NodeID
	Label string
}

// String returns the node's label, or a numeric fallback.
func (n Node) String() string {
	if n.Label != "" {
		return n.Label
	}
	return fmt.Sprintf("n%d", n.ID)
}

// Network is a directed multigraph of nodes and channels. The zero value is
// an empty network ready for use; nodes and channels are added with AddNode
// and AddChannel.
type Network struct {
	name     string
	nodes    []Node
	channels []Channel
	out      [][]ChannelID // outgoing channels per node
	in       [][]ChannelID // incoming channels per node
}

// New returns an empty named network.
func New(name string) *Network {
	return &Network{name: name}
}

// Name returns the network's descriptive name.
func (n *Network) Name() string { return n.name }

// NumNodes returns the number of processors.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumChannels returns the number of unidirectional channels.
func (n *Network) NumChannels() int { return len(n.channels) }

// AddNode adds a processor with the given label and returns its ID.
func (n *Network) AddNode(label string) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{ID: id, Label: label})
	n.out = append(n.out, nil)
	n.in = append(n.in, nil)
	return id
}

// AddNodes adds count unlabeled processors and returns the ID of the first.
// Subsequent nodes have consecutive IDs.
func (n *Network) AddNodes(count int) NodeID {
	first := NodeID(len(n.nodes))
	for i := 0; i < count; i++ {
		n.AddNode("")
	}
	return first
}

// AddChannel adds a unidirectional channel from src to dst on virtual
// channel vc and returns its ID. It panics if either endpoint does not
// exist or if src == dst; self-loop channels are meaningless in the model.
func (n *Network) AddChannel(src, dst NodeID, vc int, label string) ChannelID {
	if !n.validNode(src) || !n.validNode(dst) {
		panic(fmt.Sprintf("topology: AddChannel(%d, %d): node out of range [0,%d)", src, dst, len(n.nodes)))
	}
	if src == dst {
		panic(fmt.Sprintf("topology: AddChannel: self-loop at node %d", src))
	}
	id := ChannelID(len(n.channels))
	n.channels = append(n.channels, Channel{ID: id, Src: src, Dst: dst, VC: vc, Label: label})
	n.out[src] = append(n.out[src], id)
	n.in[dst] = append(n.in[dst], id)
	return id
}

func (n *Network) validNode(id NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes)
}

func (n *Network) validChannel(id ChannelID) bool {
	return id >= 0 && int(id) < len(n.channels)
}

// Node returns the node with the given ID. It panics on out-of-range IDs.
func (n *Network) Node(id NodeID) Node {
	if !n.validNode(id) {
		panic(fmt.Sprintf("topology: Node(%d): out of range [0,%d)", id, len(n.nodes)))
	}
	return n.nodes[id]
}

// Channel returns the channel with the given ID. It panics on out-of-range
// IDs.
func (n *Network) Channel(id ChannelID) Channel {
	if !n.validChannel(id) {
		panic(fmt.Sprintf("topology: Channel(%d): out of range [0,%d)", id, len(n.channels)))
	}
	return n.channels[id]
}

// Nodes returns all nodes in ID order. The returned slice is shared; callers
// must not modify it.
func (n *Network) Nodes() []Node { return n.nodes }

// Channels returns all channels in ID order. The returned slice is shared;
// callers must not modify it.
func (n *Network) Channels() []Channel { return n.channels }

// Out returns the IDs of channels leaving node id. The returned slice is
// shared; callers must not modify it.
func (n *Network) Out(id NodeID) []ChannelID {
	if !n.validNode(id) {
		panic(fmt.Sprintf("topology: Out(%d): out of range", id))
	}
	return n.out[id]
}

// In returns the IDs of channels entering node id. The returned slice is
// shared; callers must not modify it.
func (n *Network) In(id NodeID) []ChannelID {
	if !n.validNode(id) {
		panic(fmt.Sprintf("topology: In(%d): out of range", id))
	}
	return n.in[id]
}

// ChannelsBetween returns the IDs of all channels from src to dst, sorted by
// virtual-channel index then ID.
func (n *Network) ChannelsBetween(src, dst NodeID) []ChannelID {
	var ids []ChannelID
	for _, cid := range n.Out(src) {
		if n.channels[cid].Dst == dst {
			ids = append(ids, cid)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := n.channels[ids[i]], n.channels[ids[j]]
		if a.VC != b.VC {
			return a.VC < b.VC
		}
		return a.ID < b.ID
	})
	return ids
}

// Validate checks structural well-formedness: at least two nodes, every
// channel endpoint in range, and strong connectivity (Definition 1 requires
// the network to be strongly connected so every routing problem is
// solvable).
func (n *Network) Validate() error {
	if len(n.nodes) < 2 {
		return fmt.Errorf("topology: network %q has %d nodes; need at least 2", n.name, len(n.nodes))
	}
	for _, c := range n.channels {
		if !n.validNode(c.Src) || !n.validNode(c.Dst) {
			return fmt.Errorf("topology: channel %d has invalid endpoints (%d -> %d)", c.ID, c.Src, c.Dst)
		}
	}
	if !n.StronglyConnected() {
		return fmt.Errorf("topology: network %q is not strongly connected", n.name)
	}
	return nil
}

// StronglyConnected reports whether every node can reach every other node
// along directed channels.
func (n *Network) StronglyConnected() bool {
	if len(n.nodes) == 0 {
		return false
	}
	if len(n.nodes) == 1 {
		return true
	}
	return n.reachesAll(0, false) && n.reachesAll(0, true)
}

// reachesAll reports whether BFS from start visits every node, following
// channels forward (reverse=false) or backward (reverse=true).
func (n *Network) reachesAll(start NodeID, reverse bool) bool {
	adj := n.out
	if reverse {
		adj = n.in
	}
	seen := make([]bool, len(n.nodes))
	seen[start] = true
	queue := []NodeID{start}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, cid := range adj[u] {
			c := n.channels[cid]
			v := c.Dst
			if reverse {
				v = c.Src
			}
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == len(n.nodes)
}

// DOT renders the network in Graphviz format: one node per processor and
// one edge per channel, labeled with the channel's virtual-channel index
// when nonzero.
func (n *Network) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", n.name)
	for _, nd := range n.nodes {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", nd.ID, nd.String())
	}
	for _, c := range n.channels {
		if c.VC != 0 {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"v%d\"];\n", c.Src, c.Dst, c.VC)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", c.Src, c.Dst)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
