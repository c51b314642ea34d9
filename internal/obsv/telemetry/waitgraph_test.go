package telemetry

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/topology"
)

// waitAdd applies the wait-for edge "msg waits for ch, held by owner".
func waitAdd(g *obsv.WaitGraph, cycle, msg int, ch topology.ChannelID, owner int) {
	g.Apply(obsv.Event{Kind: obsv.KindWaitEdgeAdd, Cycle: cycle, Msg: msg, Ch: ch, Owner: owner})
}

// TestRecorderCycleDetection: a wait-for graph rebuilt from a trace event
// stream, with a three-message wait cycle plus a non-cycle bystander;
// only the cycle members and the channels they wait for are reported.
func TestRecorderCycleDetection(t *testing.T) {
	var g obsv.WaitGraph
	waitAdd(&g, 10, 0, 1, 1)
	waitAdd(&g, 10, 1, 2, 2)
	waitAdd(&g, 11, 2, 0, 0)
	waitAdd(&g, 11, 3, 1, 1) // bystander waiting into the cycle
	// A resolved edge must drop out of the graph.
	waitAdd(&g, 12, 4, 3, 0)
	g.Apply(obsv.Event{Kind: obsv.KindWaitEdgeDel, Cycle: 13, Msg: 4})

	var cycles [][]int
	g.Cycles(func(c []int) bool {
		cycles = append(cycles, append([]int(nil), c...))
		return true
	})
	if fmt.Sprint(cycles) != "[[0 1 2]]" {
		t.Fatalf("cycles = %v, want the one cycle [0 1 2]", cycles)
	}
	var chs []topology.ChannelID
	for _, m := range cycles[0] {
		ch, _, ok := g.WaitsFor(m)
		if !ok {
			t.Fatalf("cycle member m%d is not blocked", m)
		}
		chs = append(chs, ch)
	}
	if fmt.Sprint(chs) != "[1 2 0]" {
		t.Fatalf("cycle channels = %v, want [1 2 0]", chs)
	}

	dot := string(g.AppendDOT(nil, "wait-for @13 [deadlock]"))
	if !strings.Contains(dot, `m0 -> m1 [label="c1" color=red style=bold]`) {
		t.Fatalf("cycle edge not red:\n%s", dot)
	}
	if !strings.Contains(dot, `m3 -> m1 [label="c1"];`) {
		t.Fatalf("bystander edge must stay plain:\n%s", dot)
	}
	if strings.Contains(dot, "m4 ->") {
		t.Fatalf("deleted edge still rendered:\n%s", dot)
	}
}
