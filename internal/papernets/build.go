// Package papernets constructs the concrete networks, routing algorithms
// and message sets of Schwiebert (SPAA '97): the Figure 1 Cyclic Dependency
// network, its Section 6 generalization Gen(k), the Figure 2 two-sharer
// deadlock network, and a parameterized family of three-sharer networks
// covering the Figure 3 configurations of Theorem 5.
//
// All constructions are instances of one generalized builder. The cycle is
// a directed ring of channels; each participating message ("entrant")
// enters the ring at an entry node E_i, holds an arc of C_i ring channels,
// and is destined for the node immediately after the next entrant's entry
// — so the first ring channel of entrant i+1 is exactly the channel that
// blocks entrant i, reproducing the paper's Definition 6 cycle shape:
//
//	M_i holds   E_i -> ... -> E_{i+1}   (C_i channels)
//	M_i waits   E_{i+1} -> D_i          (= M_{i+1}'s first ring channel)
//
// Shared entrants all originate at node Src and reach the ring through the
// single shared channel cs = Src -> N* followed by a private connector
// chain of D_i - 1 channels (D_i counts cs itself, matching the paper's
// "M1 and M3 use two channels from Src to the cycle, M2 and M4 use
// three"). Private entrants (Figure 3(f)'s fourth message) originate at
// their own source with a private chain of D_i channels and never use cs.
//
// Around this skeleton the builder completes the network into the paper's
// star: every node gets a bidirectional channel pair to the hub N*, and
// the routing algorithm sends every non-exceptional (src, dst) pair via
// src -> N* -> dst, exactly as the paper prescribes ("with four
// exceptions, messages ... are routed by sending the message to node N*,
// which then forwards the message directly to the destination").
package papernets

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/unreachable"
)

// Entrant parameterizes one message of the cyclic configuration.
type Entrant struct {
	// Shared selects the source: true = the message originates at Src and
	// uses the shared channel cs; false = it has a private source node and
	// approach chain (Figure 3(f)'s S4).
	Shared bool
	// D is the number of channels from the source to the message's ring
	// entry node. For shared entrants D counts the shared channel cs
	// itself (D >= 1; D == 1 means the entry node is N* itself). For
	// private entrants D is the length of the private chain (D >= 1).
	D int
	// C is the number of ring channels the message must hold to block its
	// successor: the arc from its entry node to the next entrant's entry
	// node. C >= 2.
	C int
	// Label names the message in diagnostics (defaults to M1, M2, ...).
	Label string
}

// EntrantInfo describes one realized entrant.
type EntrantInfo struct {
	Entrant
	Index  int
	Source topology.NodeID
	Dest   topology.NodeID
	Entry  topology.NodeID // ring entry node E_i
	Path   []topology.ChannelID
	// Approach is the prefix of Path before the first ring channel.
	Approach []topology.ChannelID
	// Arc is the C_i ring channels the message holds when blocked.
	Arc []topology.ChannelID
	// BlockedAt is the ring channel the message waits for in the deadlock
	// configuration (the next entrant's first ring channel).
	BlockedAt topology.ChannelID
}

// Net is a fully built paper network: topology, complete oblivious routing
// algorithm, the adversarial message scenario, and structural metadata for
// the Section 5 condition checkers.
type Net struct {
	Name     string
	Network  *topology.Network
	Alg      *routing.Table
	Scenario sim.Scenario

	Src    topology.NodeID
	Hub    topology.NodeID // N*
	Shared topology.ChannelID
	// Ring lists the cycle channels in cyclic order starting at entrant
	// 0's entry channel.
	Ring     []topology.ChannelID
	Entrants []EntrantInfo
}

// Configuration extracts the abstract cyclic configuration (ring order,
// approach distances, arc lengths, sharing flags) for the Section 5
// analyzer in internal/unreachable.
func (pn *Net) Configuration() unreachable.Config {
	cfg := unreachable.Config{}
	for _, e := range pn.Entrants {
		cfg.Entrants = append(cfg.Entrants, unreachable.Entrant{D: e.D, C: e.C, Shared: e.Entrant.Shared})
	}
	return cfg
}

// Build constructs the generalized cyclic-configuration network. It panics
// on invalid parameters; constructions are static fixtures.
func Build(name string, entrants []Entrant) *Net {
	if len(entrants) < 2 {
		panic("papernets: need at least two entrants to form a cycle")
	}
	anyShared := false
	for i, e := range entrants {
		if e.D < 1 {
			panic(fmt.Sprintf("papernets: entrant %d: D = %d < 1", i, e.D))
		}
		if e.Shared && e.D < 2 {
			panic(fmt.Sprintf("papernets: entrant %d: shared entrants need D >= 2 (cs plus at least one connector)", i))
		}
		if e.C < 2 {
			panic(fmt.Sprintf("papernets: entrant %d: C = %d < 2", i, e.C))
		}
		if e.Shared {
			anyShared = true
		}
	}

	net := topology.New(name)
	src := net.AddNode("Src")
	hub := net.AddNode("N*")

	n := len(entrants)
	infos := make([]EntrantInfo, n)

	// Ring nodes: entry node E_i plus C_i - 1 interior nodes per arc. The
	// first interior node of arc i is the destination of entrant i-1.
	entry := make([]topology.NodeID, n)
	interior := make([][]topology.NodeID, n)
	for i, e := range entrants {
		label := e.Label
		if label == "" {
			label = fmt.Sprintf("M%d", i+1)
		}
		entrants[i].Label = label
		entry[i] = net.AddNode(fmt.Sprintf("E%d", i+1))
		interior[i] = make([]topology.NodeID, e.C-1)
		for j := range interior[i] {
			if j == 0 {
				// Destination of the previous entrant.
				prev := (i - 1 + n) % n
				interior[i][j] = net.AddNode(fmt.Sprintf("D%d", prev+1))
			} else {
				interior[i][j] = net.AddNode(fmt.Sprintf("R%d.%d", i+1, j))
			}
		}
	}

	// Ring channels, arc by arc.
	arcs := make([][]topology.ChannelID, n)
	var ring []topology.ChannelID
	for i, e := range entrants {
		nodes := append([]topology.NodeID{entry[i]}, interior[i]...)
		nodes = append(nodes, entry[(i+1)%n])
		arcs[i] = make([]topology.ChannelID, e.C)
		for j := 0; j < e.C; j++ {
			arcs[i][j] = net.AddChannel(nodes[j], nodes[j+1], 0,
				fmt.Sprintf("ring%d.%d(%s->%s)", i+1, j, net.Node(nodes[j]), net.Node(nodes[j+1])))
		}
		ring = append(ring, arcs[i]...)
	}

	// Shared channel and connector chains.
	var shared topology.ChannelID = topology.None
	if anyShared {
		shared = net.AddChannel(src, hub, 0, "cs(Src->N*)")
	}
	for i, e := range entrants {
		info := &infos[i]
		info.Entrant = entrants[i]
		info.Index = i
		info.Entry = entry[i]

		var approach []topology.ChannelID
		if e.Shared {
			info.Source = src
			approach = append(approach, shared)
			at := hub
			for j := 1; j < e.D; j++ {
				var next topology.NodeID
				if j == e.D-1 {
					next = entry[i]
				} else {
					next = net.AddNode(fmt.Sprintf("P%d.%d", i+1, j))
				}
				approach = append(approach, net.AddChannel(at, next, 0,
					fmt.Sprintf("conn%d.%d", i+1, j)))
				at = next
			}
		} else {
			s := net.AddNode(fmt.Sprintf("S%d", i+1))
			info.Source = s
			at := s
			for j := 0; j < e.D; j++ {
				var next topology.NodeID
				if j == e.D-1 {
					next = entry[i]
				} else {
					next = net.AddNode(fmt.Sprintf("Q%d.%d", i+1, j))
				}
				approach = append(approach, net.AddChannel(at, next, 0,
					fmt.Sprintf("priv%d.%d", i+1, j)))
				at = next
			}
		}
		info.Approach = approach
		info.Arc = arcs[i]
		nextArc := arcs[(i+1)%n]
		info.BlockedAt = nextArc[0]
		info.Dest = net.Channel(nextArc[0]).Dst

		info.Path = append(append([]topology.ChannelID(nil), approach...), arcs[i]...)
		info.Path = append(info.Path, nextArc[0])
	}

	// Star completion: bidirectional channels between the hub and every
	// other node (skipping directions that already exist), so the default
	// "route via N*" rule connects all pairs.
	for _, nd := range net.Nodes() {
		if nd.ID == hub {
			continue
		}
		if len(net.ChannelsBetween(nd.ID, hub)) == 0 {
			net.AddChannel(nd.ID, hub, 0, fmt.Sprintf("star(%s->N*)", nd))
		}
		if len(net.ChannelsBetween(hub, nd.ID)) == 0 {
			net.AddChannel(hub, nd.ID, 0, fmt.Sprintf("star(N*->%s)", nd))
		}
	}
	// Reverse ring channels: the paper's Figure 1 channels are
	// bidirectional; the reverse directions exist but are never used by
	// the routing algorithm.
	for _, cid := range ring {
		c := net.Channel(cid)
		if len(net.ChannelsBetween(c.Dst, c.Src)) == 0 {
			net.AddChannel(c.Dst, c.Src, 0, fmt.Sprintf("rev(%s)", c.Label))
		}
	}
	if err := net.Validate(); err != nil {
		panic(fmt.Sprintf("papernets: built network invalid: %v", err))
	}

	// Routing algorithm: hub routing for every pair, then the exceptional
	// cyclic paths overriding their (source, dest) pairs.
	tab := routing.NewTable(net, "cyclicdep."+name)
	if err := tab.FillHub(hub); err != nil {
		panic(fmt.Sprintf("papernets: hub routing incomplete: %v", err))
	}
	pn := &Net{
		Name:     name,
		Network:  net,
		Alg:      tab,
		Src:      src,
		Hub:      hub,
		Shared:   shared,
		Ring:     ring,
		Entrants: infos,
	}
	for _, info := range infos {
		tab.MustSetPath(info.Source, info.Dest, info.Path)
	}

	// The adversarial scenario: each entrant message at its paper-minimal
	// length (just long enough to hold its arc with one-flit buffers:
	// C_i flits), under the paper's aggressive same-cycle channel handoff
	// (Theorem 4's "immediately after M1 has traversed cs, M2 starts
	// traversing cs").
	sc := sim.Scenario{Name: name, Net: net, Cfg: sim.Config{SameCycleHandoff: true}}
	for _, info := range infos {
		sc.Msgs = append(sc.Msgs, sim.MessageSpec{
			Src:    info.Source,
			Dst:    info.Dest,
			Length: info.C,
			Path:   append([]topology.ChannelID(nil), info.Path...),
			Label:  info.Label,
		})
	}
	pn.Scenario = sc
	return pn
}
