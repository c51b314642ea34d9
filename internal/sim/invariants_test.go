package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// checkInvariants verifies the structural invariants of a simulator state:
// flit conservation, contiguous worm occupancy, ownership consistency with
// queue contents, buffer capacity, and each worm's cached head index.
func checkInvariants(t *testing.T, s *Sim) {
	t.Helper()
	if err := HeadMismatch(s); err != nil {
		t.Fatal(err)
	}
	perChannel := make(map[topology.ChannelID]int)
	for id := 0; id < s.NumMessages(); id++ {
		mv := s.Message(id)
		inQueues := 0
		for i, q := range mv.Queued {
			if q < 0 || q > s.BufferDepth() {
				t.Fatalf("m%d queue %d holds %d flits (depth %d)", id, i, q, s.BufferDepth())
			}
			inQueues += q
			if q > 0 {
				perChannel[mv.Path[i]] += q
				if owner := s.Owner(mv.Path[i]); owner != id {
					t.Fatalf("m%d has flits in channel %d owned by %d", id, mv.Path[i], owner)
				}
			}
		}
		// Conservation: at source + in network + consumed = length.
		atSource := mv.Spec.Length - mv.Injected
		if atSource+inQueues+mv.Consumed != mv.Spec.Length || mv.Injected-inQueues != mv.Consumed {
			t.Fatalf("m%d flit conservation broken: source %d, queued %d, consumed %d, length %d",
				id, atSource, inQueues, mv.Consumed, mv.Spec.Length)
		}
		// Occupied channels form one contiguous run (a worm never splits
		// around an empty owned gap beyond transient single-flit motion...
		// the engine moves one flit per channel per cycle, so runs stay
		// contiguous).
		first, last := -1, -1
		for i, q := range mv.Queued {
			if q > 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first >= 0 {
			for i := first; i <= last; i++ {
				if mv.Queued[i] == 0 && s.BufferDepth() == 1 {
					t.Fatalf("m%d worm has a gap at %d with one-flit buffers: %v", id, i, mv.Queued)
				}
			}
		}
		if mv.Delivered && inQueues != 0 {
			t.Fatalf("m%d delivered but still queued: %v", id, mv.Queued)
		}
	}
	// Atomic allocation: one message per channel is implied by the
	// ownership check above; also verify capacity per physical channel.
	for c, n := range perChannel {
		if n > s.BufferDepth() {
			t.Fatalf("channel %d holds %d flits (depth %d)", c, n, s.BufferDepth())
		}
	}
	// Channels owned by nobody must hold no flits (ownership released only
	// after the tail left).
	for _, ch := range s.Network().Channels() {
		if s.Owner(ch.ID) == -1 && perChannel[ch.ID] != 0 {
			t.Fatalf("free channel %d holds flits", ch.ID)
		}
	}
}

// randomScenario builds a random multi-message scenario on a bidirectional
// ring with BFS-shortest paths.
func randomScenario(seed int64, handoff bool, depth int) *Sim {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(4)
	net := topology.NewRing(n, true)
	s := New(net, Config{BufferDepth: depth, SameCycleHandoff: handoff})
	msgs := 2 + rng.Intn(5)
	for i := 0; i < msgs; i++ {
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		path := net.ShortestPath(src, dst)
		s.MustAdd(MessageSpec{
			Src: src, Dst: dst,
			Length:   1 + rng.Intn(6),
			Path:     path,
			InjectAt: rng.Intn(8),
		})
	}
	return s
}

// Property: the structural invariants hold after every cycle of random
// scenarios, in both handoff modes and at several buffer depths.
func TestSimInvariantsProperty(t *testing.T) {
	f := func(seed int64, handoff bool, depthRaw uint8) bool {
		depth := 1 + int(depthRaw%3)
		s := randomScenario(seed, handoff, depth)
		for c := 0; c < 60; c++ {
			s.Step()
			checkInvariants(t, s)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a bidirectional ring with shortest paths, one-message
// scenarios always deliver, and the outcome of Run is stable under
// re-running a clone.
func TestSimRunDeterministicProperty(t *testing.T) {
	f := func(seed int64, handoff bool) bool {
		s := randomScenario(seed, handoff, 1)
		c := s.Clone()
		out1 := s.Run(5000)
		out2 := c.Run(5000)
		if out1.Result != out2.Result || out1.Cycles != out2.Cycles {
			return false
		}
		if out1.Result == ResultTimeout {
			return false // 5000 cycles is far beyond any legit run here
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: encodings are equal iff the observable message states are
// equal, along random runs.
func TestEncodeConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomScenario(seed, false, 1)
		b := randomScenario(seed, false, 1)
		for c := 0; c < 40; c++ {
			if encOf(a) != encOf(b) {
				return false
			}
			a.Step()
			b.Step()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Same-cycle handoff can only speed things up: a delivered strict-mode
// scenario also delivers with handoff, no later.
func TestHandoffNeverSlower(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		strict := randomScenario(seed, false, 1)
		fast := randomScenario(seed, true, 1)
		o1 := strict.Run(5000)
		o2 := fast.Run(5000)
		if o1.Result == ResultDelivered && o2.Result == ResultDelivered {
			if o2.Cycles > o1.Cycles {
				t.Fatalf("seed %d: handoff slower (%d > %d cycles)", seed, o2.Cycles, o1.Cycles)
			}
		}
	}
}

// TestHeadIndexCache pins the head index cache on the moves that lower or
// reset the head: a tail flit refilling the sink slot the header was just
// consumed from, a worm draining while its source still holds flits and
// then injecting again, and the recovery primitives ResetMessage,
// DropMessage and SetMessagePath.
func TestHeadIndexCache(t *testing.T) {
	net := topology.NewRing(4, false)
	path := []topology.ChannelID{0, 1, 2}
	step := func(t *testing.T, s *Sim) {
		t.Helper()
		s.Step()
		if err := HeadMismatch(s); err != nil {
			t.Fatalf("cycle %d: %v", s.Now(), err)
		}
	}

	t.Run("sink-refill", func(t *testing.T) {
		s := New(net, Config{})
		id := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 4, Path: path})
		m := &s.msgs[id]
		refilled := false
		for !m.delivered() {
			step(t, s)
			if m.headerConsumed && m.queued[len(path)-1] > 0 {
				refilled = true
			}
		}
		if !refilled {
			t.Fatal("no tail flit reached the sink slot after the header was consumed")
		}
	})

	t.Run("drain-then-inject", func(t *testing.T) {
		s := New(net, Config{})
		id := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 4, Path: path})
		m := &s.msgs[id]
		step(t, s)
		step(t, s)
		s.SetHeld(id, true) // the source stops injecting mid-message
		for m.inNetwork() {
			step(t, s)
		}
		if m.injected == m.length || m.head != -1 {
			t.Fatalf("want a drained worm with flits at the source: injected %d of %d, head %d",
				m.injected, m.length, m.head)
		}
		s.SetHeld(id, false)
		step(t, s)
		if m.head != 0 {
			t.Fatalf("reinjected flit not at the head: head %d, queue %v", m.head, m.queued)
		}
		for !m.delivered() {
			step(t, s)
		}
	})

	t.Run("recovery", func(t *testing.T) {
		s := New(net, Config{})
		a := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 4, Path: path})
		b := s.MustAdd(MessageSpec{Src: 1, Dst: 3, Length: 2, Path: path[1:]})
		step(t, s)
		step(t, s)
		if !s.InNetwork(a) || !s.InNetwork(b) {
			t.Fatal("both worms should be in the network")
		}
		s.DropMessage(b)
		if err := HeadMismatch(s); err != nil {
			t.Fatalf("after DropMessage: %v", err)
		}
		s.ResetMessage(a, s.Now())
		if err := HeadMismatch(s); err != nil {
			t.Fatalf("after ResetMessage: %v", err)
		}
		if err := s.SetMessagePath(a, path); err != nil {
			t.Fatal(err)
		}
		if err := HeadMismatch(s); err != nil {
			t.Fatalf("after SetMessagePath: %v", err)
		}
		if out := s.Run(100); out.Result != ResultDegraded {
			t.Fatalf("result %v, want degraded", out.Result)
		}
		if err := HeadMismatch(s); err != nil {
			t.Fatalf("after the run: %v", err)
		}
	})
}
