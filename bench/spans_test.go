package bench

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// syntheticTree is a traced op; levelStart sets where mcheck.level
// starts:
//
//	workload [0,100]
//	  op [10,90]
//	    sim.Step [20,40]
//	      sim.EncodeTo [25,30]
//	    mcheck.level [levelStart,60]
//	  check [90,95]
func syntheticTree(levelStart int) []Span {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	return []Span{
		{ID: 0, Parent: -1, Op: -1, Name: "workload", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Op: 0, Name: "op", Start: ms(10), End: ms(90)},
		{ID: 2, Parent: 1, Op: 0, Name: "sim.Step", Start: ms(20), End: ms(40)},
		{ID: 3, Parent: 2, Op: 0, Name: "sim.EncodeTo", Start: ms(25), End: ms(30)},
		{ID: 4, Parent: 1, Op: 0, Name: "mcheck.level", Start: ms(levelStart), End: ms(60)},
		{ID: 5, Parent: 0, Op: 0, Name: "check", Start: ms(90), End: ms(95)},
	}
}

func TestSelfTimes(t *testing.T) {
	// mcheck.level overlaps sim.Step by 10ms: the op's self time is its
	// 80ms minus the union [20,60] of its children, the overlap once.
	got := SelfTimes(syntheticTree(30))
	want := []int{100 - 80 - 5, 80 - 40, 20 - 5, 5, 30, 5}
	for i, w := range want {
		if got[i] != time.Duration(w)*time.Millisecond {
			t.Errorf("self[%d] = %v, want %dms", i, got[i], w)
		}
	}
}

func TestLayerSharesSumToOne(t *testing.T) {
	shares := LayerShares(syntheticTree(40), "op")
	want := map[string]float64{
		"sim":      (15 + 5) / 80.0,
		"mcheck":   20 / 80.0,
		"residual": 40 / 80.0, // the op's own self time
	}
	sum := 0.0
	for k, v := range shares {
		sum += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", k, v, want[k])
		}
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %g; want %v summing to 1", shares, sum, want)
	}
	if got := LayerShares(nil, "op"); got["residual"] != 1 {
		t.Errorf("no spans: %v, want all residual", got)
	}
}

func TestSpansRecorderAndChromeTrace(t *testing.T) {
	var none *Spans
	if id := none.Begin("x", -1); id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	none.End(-1)

	r := NewSpans()
	root := r.Begin("workload", -1)
	r.SetOp(3)
	child := r.Begin("core.Analyze", root)
	r.End(child)
	r.End(root)
	spans := r.All()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 3 || spans[0].Op != -1 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].End < spans[1].Start || spans[0].End < spans[1].End {
		t.Fatalf("span times out of order: %+v", spans)
	}
	var b strings.Builder
	if err := WriteChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "core.Analyze" || ev.Cat != "core" || ev.Ph != "X" || ev.Args["parent"] != root || ev.Args["op"] != 3 || ev.Args["id"] != child {
		t.Errorf("event = %+v", ev)
	}
}
