package obsv

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestEventJSONOmitsInactiveFields(t *testing.T) {
	e := Ev(KindSearchLevel, 3)
	e.N = 12
	e.M = 40
	got := string(e.appendJSON(nil))
	want := `{"k":"search-level","cycle":3,"n":12,"m":40}`
	if got != want {
		t.Errorf("appendJSON = %s, want %s", got, want)
	}

	full := Ev(KindBlock, 7)
	full.Msg = 2
	full.Ch = topology.ChannelID(5)
	full.Owner = 1
	full.Note = `says "hi"`
	got = string(full.appendJSON(nil))
	want = `{"k":"block","cycle":7,"msg":2,"ch":5,"owner":1,"note":"says \"hi\""}`
	if got != want {
		t.Errorf("appendJSON = %s, want %s", got, want)
	}

	// Msg 0 and Ch 0 are real IDs, not sentinels, and must be kept.
	zero := Ev(KindAcquire, 0)
	zero.Msg = 0
	zero.Ch = topology.ChannelID(0)
	got = string(zero.appendJSON(nil))
	want = `{"k":"acquire","cycle":0,"msg":0,"ch":0}`
	if got != want {
		t.Errorf("appendJSON = %s, want %s", got, want)
	}
}

func TestEventJSONIsValidJSON(t *testing.T) {
	for k := KindInject; k <= KindSearchDone; k++ {
		e := Ev(k, 1)
		e.Note = "quote\" backslash\\ newline\n"
		var decoded map[string]any
		if err := json.Unmarshal(e.appendJSON(nil), &decoded); err != nil {
			t.Errorf("kind %v: invalid JSON: %v", k, err)
		}
		if decoded["k"] != k.String() {
			t.Errorf("kind %v: k = %v", k, decoded["k"])
		}
		if k.String() == "unknown" {
			t.Errorf("kind %v has no wire name", uint8(k))
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var sb strings.Builder
	s := NewJSONL(&sb)
	e := Ev(KindInject, 0)
	e.Msg = 1
	s.Event(e)
	e = Ev(KindOutcome, 9)
	e.Note = "delivered"
	s.Event(e)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"k":"inject","cycle":0,"msg":1}` + "\n" +
		`{"k":"outcome","cycle":9,"note":"delivered"}` + "\n"
	if sb.String() != want {
		t.Errorf("JSONL output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// waitEdge emits a wait-add of msg -> owner over ch at the given cycle.
func waitEdge(t Tracer, cycle, msg, owner, ch int) {
	e := Ev(KindWaitEdgeAdd, cycle)
	e.Msg = msg
	e.Owner = owner
	e.Ch = topology.ChannelID(ch)
	t.Event(e)
}

func TestDOTSinkMarksClosedCycle(t *testing.T) {
	var sb strings.Builder
	s := NewDOT(&sb, "test")
	// Cycle 1: a chain m0 -> m1 -> m2 (no cycle), and m4 -> m0.
	waitEdge(s, 1, 0, 1, 10)
	waitEdge(s, 1, 1, 2, 11)
	waitEdge(s, 1, 4, 0, 13)
	// Cycle 2: m2 -> m0 closes the loop, m3 waits into it as a bystander,
	// and m4's edge resolves.
	waitEdge(s, 2, 2, 0, 12)
	waitEdge(s, 2, 3, 1, 10)
	del := Ev(KindWaitEdgeDel, 2)
	del.Msg = 4
	s.Event(del)
	var cycles [][]int
	s.graph.Cycles(func(c []int) bool {
		cycles = append(cycles, append([]int(nil), c...))
		return true
	})
	if fmt.Sprint(cycles) != "[[0 1 2]]" {
		t.Fatalf("cycles = %v, want the one cycle [0 1 2]", cycles)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	snaps := strings.Count(out, "digraph")
	if snaps != 2 {
		t.Fatalf("got %d snapshots, want 2:\n%s", snaps, out)
	}
	first := out[:strings.Index(out, "digraph \"test wait-for @2\"")]
	second := out[len(first):]
	if strings.Contains(first, "color=red") {
		t.Errorf("chain snapshot marked a cycle:\n%s", first)
	}
	if got := strings.Count(second, "color=red style=bold"); got != 6 {
		// 3 member nodes + 3 cycle edges.
		t.Errorf("closed-cycle snapshot has %d red marks, want 6:\n%s", got, second)
	}
	if !strings.Contains(second, `m0 -> m1 [label="c10" color=red style=bold]`) {
		t.Errorf("cycle edge not red:\n%s", second)
	}
	if !strings.Contains(second, `m3 -> m1 [label="c10"];`) {
		t.Errorf("bystander edge must stay plain:\n%s", second)
	}
	if strings.Contains(second, "m4 ->") {
		t.Errorf("resolved edge still rendered:\n%s", second)
	}
}

func TestDOTSinkDropsResolvedEdges(t *testing.T) {
	var sb strings.Builder
	s := NewDOT(&sb, "test")
	waitEdge(s, 1, 0, 1, 10)
	del := Ev(KindWaitEdgeDel, 3)
	del.Msg = 0
	del.Owner = 1
	del.Ch = topology.ChannelID(10)
	s.Event(del)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "m0 -> m1") != 1 {
		t.Errorf("edge should appear in exactly the first snapshot:\n%s", out)
	}
	// Both messages stay as nodes in the final (edge-free) snapshot.
	last := out[strings.LastIndex(out, "digraph"):]
	if !strings.Contains(last, "m0 [") || !strings.Contains(last, "m1 [") || strings.Contains(last, "->") {
		t.Errorf("final snapshot should keep nodes and drop the edge:\n%s", last)
	}
}

func TestChromeTraceSinkIsValidJSON(t *testing.T) {
	var sb strings.Builder
	s := NewChromeTrace(&sb, []string{"c0 0->1", "c1 1->2"})
	acq := Ev(KindAcquire, 0)
	acq.Msg = 3
	acq.Ch = topology.ChannelID(1)
	s.Event(acq)
	rel := Ev(KindRelease, 4)
	rel.Msg = 3
	rel.Ch = topology.ChannelID(1)
	s.Event(rel)
	out := Ev(KindOutcome, 5)
	out.Note = "delivered"
	s.Event(out)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &records); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, sb.String())
	}
	// 1 process_name + 2 thread_name + B + E + instant.
	if len(records) != 6 {
		t.Fatalf("got %d records, want 6", len(records))
	}
	if records[3]["ph"] != "B" || records[4]["ph"] != "E" {
		t.Errorf("span records = %v %v", records[3], records[4])
	}
	if records[3]["tid"] != records[4]["tid"] {
		t.Errorf("span changed lanes: %v vs %v", records[3]["tid"], records[4]["tid"])
	}
}

func TestMultiSkipsNilMembers(t *testing.T) {
	rec := &Recorder{}
	m := Multi{nil, rec, nil}
	m.Event(Ev(KindInject, 0))
	if len(rec.Events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(rec.Events))
	}
	if rec.Count(KindInject) != 1 || rec.Count(KindDeliver) != 0 {
		t.Error("Count mismatch")
	}
}
