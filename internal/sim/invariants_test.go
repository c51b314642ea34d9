package sim

import (
	"math/rand"
	"testing"

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

// FuzzSimInvariants: the structural invariants hold after every cycle of
// random scenarios, in both handoff modes and at several buffer depths.
// The 60 seeds keep plain go test at the case count of the quick.Check
// property this target replaces.
func FuzzSimInvariants(f *testing.F) {
	for i := 0; i < 60; i++ {
		f.Add(int64(i), i%2 == 1, uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, handoff bool, depthRaw uint8) {
		depth := 1 + int(depthRaw%3)
		s := randomScenario(seed, handoff, depth)
		for c := 0; c < 60; c++ {
			s.Step()
			checkInvariants(t, s)
		}
	})
}

// FuzzSimRunDeterministic: on a bidirectional ring with shortest paths,
// Run finishes well inside its budget and its outcome is stable under
// re-running a clone. Seeded with 80 inputs.
func FuzzSimRunDeterministic(f *testing.F) {
	for i := 0; i < 80; i++ {
		f.Add(int64(i), i%2 == 1)
	}
	f.Fuzz(func(t *testing.T, seed int64, handoff bool) {
		s := randomScenario(seed, handoff, 1)
		c := s.Clone()
		out1 := s.Run(5000)
		out2 := c.Run(5000)
		if out1.Result != out2.Result || out1.Cycles != out2.Cycles {
			t.Fatalf("clone diverged: %+v vs %+v", out1, out2)
		}
		if out1.Result == ResultTimeout {
			t.Fatal("5000 cycles is far beyond any legitimate run here")
		}
	})
}

// FuzzEncodeConsistency: two simulators built from the same scenario
// encode identically along the whole run. Seeded with 40 inputs.
func FuzzEncodeConsistency(f *testing.F) {
	for i := 0; i < 40; i++ {
		f.Add(int64(i))
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		a := randomScenario(seed, false, 1)
		b := randomScenario(seed, false, 1)
		for c := 0; c < 40; c++ {
			if encOf(a) != encOf(b) {
				t.Fatalf("cycle %d: twin simulators encode differently", c)
			}
			a.Step()
			b.Step()
		}
	})
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
// consumed from, and a worm draining while its source still holds flits
// and then injecting again.
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
			if m.headerConsumed && s.queue(m)[len(path)-1] > 0 {
				refilled = true
			}
		}
		if !refilled {
			t.Fatal("no tail flit reached the sink slot after the header was consumed")
		}
	})

	t.Run("drain-then-inject", func(t *testing.T) {
		// On a one-channel path the sink slot is the only slot: each
		// cycle consumes the flit in it and injects the next, so the worm
		// drains to nothing while its source still holds flits, and the
		// injection must set the head again.
		s := New(net, Config{})
		id := s.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 4, Path: path[:1]})
		m := &s.msgs[id]
		drained := 0
		for !m.delivered() {
			consumed := m.consumed
			step(t, s)
			if m.consumed > consumed && m.injected < m.length {
				drained++
				if m.head != 0 {
					t.Fatalf("cycle %d: reinjected flit not at the head: head %d, queue %v", s.Now(), m.head, s.queue(m))
				}
			}
		}
		if drained == 0 {
			t.Fatal("the worm never drained while its source still held flits")
		}
	})
}
