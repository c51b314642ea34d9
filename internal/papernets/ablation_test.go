package papernets

import (
	"testing"

	"repro/internal/mcheck"
)

// The paper argues one-flit buffers and minimal message lengths are the
// hardest case for deadlock freedom: "if a deadlock configuration cannot
// be created when the buffer size is one flit and the messages have their
// minimum length, then the routing algorithm is deadlock-free." These
// ablations confirm the claim computationally: relaxing either knob keeps
// Figure 1 deadlock-free.

func TestTheorem1BufferDepthAblation(t *testing.T) {
	for _, depth := range []int{2, 3} {
		sc := Figure1().Scenario.WithBufferDepth(depth)
		res := mcheck.Search(sc, mcheck.SearchOptions{MaxStates: 20_000_000})
		if res.Verdict != mcheck.VerdictNoDeadlock {
			t.Fatalf("buffer depth %d: %v; deeper buffers cannot introduce deadlock", depth, res.Verdict)
		}
	}
}

func TestTheorem1MessageLengthAblation(t *testing.T) {
	pn := Figure1()
	longer := make([]int, len(pn.Scenario.Msgs))
	for i, m := range pn.Scenario.Msgs {
		longer[i] = m.Length + 2
	}
	sc := pn.Scenario.WithLengths(longer)
	res := mcheck.Search(sc, mcheck.SearchOptions{MaxStates: 20_000_000})
	if res.Verdict != mcheck.VerdictNoDeadlock {
		t.Fatalf("longer messages: %v; want no deadlock", res.Verdict)
	}
}

// Conversely, shorter-than-minimal messages cannot even hold their arcs,
// so they cannot deadlock either (the paper: "if M3 holds less than three
// channels, M3 cannot hold the channel that leads to D2").
func TestTheorem1ShorterMessagesStillFree(t *testing.T) {
	pn := Figure1()
	shorter := make([]int, len(pn.Scenario.Msgs))
	for i, m := range pn.Scenario.Msgs {
		shorter[i] = m.Length - 1
	}
	sc := pn.Scenario.WithLengths(shorter)
	res := mcheck.Search(sc, mcheck.SearchOptions{MaxStates: 20_000_000})
	if res.Verdict != mcheck.VerdictNoDeadlock {
		t.Fatalf("shorter messages: %v; want no deadlock", res.Verdict)
	}
}
