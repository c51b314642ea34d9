package core

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// multiSharedNet builds a cycle whose two members share TWO approach
// channels (S->A and A->B) — outside the geometry the Section 5 theory
// covers, so the analyzer must answer Unknown rather than guess.
func multiSharedNet(t *testing.T) routing.Algorithm {
	t.Helper()
	net := topology.New("multishared")
	s := net.AddNode("S")
	a := net.AddNode("A")
	b := net.AddNode("B")
	e1 := net.AddNode("E1")
	n1 := net.AddNode("n1")
	e2 := net.AddNode("E2")
	n2 := net.AddNode("n2")
	sa := net.AddChannel(s, a, 0, "sa")
	ab := net.AddChannel(a, b, 0, "ab")
	be1 := net.AddChannel(b, e1, 0, "be1")
	be2 := net.AddChannel(b, e2, 0, "be2")
	r1 := net.AddChannel(e1, n1, 0, "r1")
	r2 := net.AddChannel(n1, e2, 0, "r2")
	r3 := net.AddChannel(e2, n2, 0, "r3")
	r4 := net.AddChannel(n2, e1, 0, "r4")
	// Return edges for strong connectivity.
	net.AddChannel(n1, s, 0, "ret1")
	net.AddChannel(n2, s, 0, "ret2")
	net.AddChannel(e1, s, 0, "ret3")
	net.AddChannel(e2, s, 0, "ret4")
	net.AddChannel(a, s, 0, "ret5")
	net.AddChannel(b, s, 0, "ret6")
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	tab := routing.NewTable(net, "multishared")
	// m1: S -> ... -> n2 holding arc {r1, r2}, blocked at r3.
	tab.MustSetPath(s, n2, []topology.ChannelID{sa, ab, be1, r1, r2, r3})
	// m2: S -> ... -> n1 holding arc {r3, r4}, blocked at r1.
	tab.MustSetPath(s, n1, []topology.ChannelID{sa, ab, be2, r3, r4, r1})
	return tab
}

func TestAnalyzeUnknownGeometry(t *testing.T) {
	rep := Analyze(multiSharedNet(t), Options{})
	if rep.Acyclic {
		t.Fatal("the construction should have a cyclic CDG")
	}
	if rep.Verdict != Unknown {
		t.Fatalf("verdict = %v (%s); two shared approach channels are outside the supported geometry", rep.Verdict, rep.Reason)
	}
	found := false
	for _, cyc := range rep.Cycles {
		for j := range cyc.Configs {
			if cyc.Config(j).Verdict == ConfigUnknown {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no configuration reported unknown")
	}
}
