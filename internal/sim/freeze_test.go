package sim

import (
	"fmt"
	"testing"

	"repro/internal/topology"
)

// A freeze applied while a message is mid-injection (some flits in the
// network, some still at the source) must halt injection and consumption
// alike, then let the message resume and deliver.
func TestSetFrozenMidInjection(t *testing.T) {
	net := topology.NewRing(4, false)
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 5, Path: []topology.ChannelID{0, 1}})

	// Advance until the message is partially injected.
	for s.Message(id).Injected == 0 || s.Message(id).Injected == 5 {
		s.Step()
		if s.Now() > 20 {
			t.Fatal("message never reached a mid-injection state")
		}
	}
	before := s.Message(id)
	if before.Injected >= 5 {
		t.Fatalf("injected = %d; want mid-injection", before.Injected)
	}

	const freeze = 4
	s.SetFrozen(id, freeze)
	for i := 0; i < freeze; i++ {
		s.Step()
		mv := s.Message(id)
		if mv.Injected != before.Injected || mv.Consumed != before.Consumed {
			t.Fatalf("frozen message moved at cycle %d: injected %d->%d, consumed %d->%d",
				s.Now(), before.Injected, mv.Injected, before.Consumed, mv.Consumed)
		}
	}
	if got := s.Frozen(id); got != 0 {
		t.Fatalf("frozen counter = %d after %d cycles; want 0", got, freeze)
	}
	out := s.Run(1000)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v; a thawed message must deliver", out.Result)
	}
}

// Freezing the last worm in an otherwise drained network must not be
// misreported as deadlock: the frozen state is externally imposed and
// finite, so Run must wait it out and finish with full delivery.
func TestFreezeLastWormInDrainedNetwork(t *testing.T) {
	net := topology.NewRing(4, false)
	s := New(net, Config{})
	fast := s.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 1, Path: []topology.ChannelID{0}})
	slow := s.MustAdd(MessageSpec{Src: 2, Dst: 0, Length: 3, Path: []topology.ChannelID{2, 3}, InjectAt: 0})

	for !s.Message(fast).Delivered {
		s.Step()
	}
	if s.Message(slow).Delivered {
		t.Fatal("fixture broken: slow message finished with the fast one")
	}
	// The slow worm is now alone in the network. Freeze it: the network is
	// fully stalled, but not deadlocked.
	s.SetFrozen(slow, 50)
	s.Step()
	if s.Quiescent() {
		t.Fatal("a frozen message must block the quiescence certificate")
	}
	out := s.Run(1000)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v (undelivered %v); a finite freeze is not a deadlock", out.Result, out.Undelivered)
	}
}

// Section 6 fault state survives Clone and enters the encoding: a held
// message and the remaining freeze (not the absolute cycle it ends at)
// distinguish states, and a clone is independent of its original.
func TestCloneEncodeFaultState(t *testing.T) {
	mk := func() *Sim {
		net := topology.NewRing(4, false)
		s := New(net, Config{})
		s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: []topology.ChannelID{0, 1}})
		s.MustAdd(MessageSpec{Src: 1, Dst: 3, Length: 2, Path: []topology.ChannelID{1, 2}})
		return s
	}

	s := mk()
	s.SetFrozen(0, 10)
	s.SetHeld(1, true)

	// A held twin and a released twin encode unequally.
	released := mk()
	released.SetFrozen(0, 10)
	if encOf(released) == encOf(s) {
		t.Fatal("holding a message does not change the encoding")
	}

	c := s.Clone()
	if encOf(c) != encOf(s) {
		t.Fatalf("clone encodes differently:\n%x\n%x", encOf(c), encOf(s))
	}
	// Clone independence: thawing the clone's message must not leak back.
	c.SetFrozen(0, 0)
	if s.Frozen(0) != 10 {
		t.Fatal("thawing the clone thawed the original")
	}

	// Clones behave identically: run both (fresh clone) to completion.
	s.SetHeld(1, false)
	s2 := s.Clone()
	out1, out2 := s.Run(1000), s2.Run(1000)
	if out1.Result != out2.Result || out1.Cycles != out2.Cycles {
		t.Fatalf("clone diverged: %+v vs %+v", out1, out2)
	}

	// Time-relativity: a sim that freezes the same message later, for the
	// same remaining freeze, encodes identically (messages held so nothing
	// else changes).
	a, b := mk(), mk()
	a.SetHeld(0, true)
	a.SetHeld(1, true)
	b.SetHeld(0, true)
	b.SetHeld(1, true)
	a.SetFrozen(1, 5)
	for i := 0; i < 3; i++ {
		b.Step()
	}
	b.SetFrozen(1, 5)
	if encOf(a) != encOf(b) {
		t.Fatalf("equal remaining freeze encodes unequally:\n%x\n%x", encOf(a), encOf(b))
	}
}

// TestOnePredictionPerState: a search state's release prediction is made
// once and serves every activation and freeze subset, because neither
// held bits nor freezes change its marks. A fresh clone carrying the same
// freezes predicts from scratch; it must agree with the reused marks on
// every query the search makes, and a frozen worm releases nothing.
func TestOnePredictionPerState(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		s := randomScenario(seed, true, 1+int(seed%2))
		for cycle := 0; cycle < 30 && !s.AllDelivered(); cycle++ {
			epoch := s.releaseEpoch
			s.CanAdvanceAll(nil)
			n := min(s.NumMessages(), 4)
			for frz := 0; frz < 1<<n; frz++ {
				for id := 0; id < n; id++ {
					s.SetFrozen(id, frz>>id&1)
				}
				for id := 0; id < n; id++ {
					s.SetHeld(id, (frz+cycle)>>id&1 == 1)
				}
				fresh := s.Clone()
				s.predictReleases()
				for c := range s.owner {
					if h := s.holder(topology.ChannelID(c)); h >= 0 && s.msgs[h].frozen > 0 && s.acquirable(topology.ChannelID(c)) {
						t.Fatalf("seed %d cycle %d: channel %d of frozen message %d reads as releasing", seed, cycle, c, h)
					}
				}
				if got, want := fmt.Sprint(s.CanAdvanceAll(nil)), fmt.Sprint(fresh.CanAdvanceAll(nil)); got != want {
					t.Fatalf("seed %d cycle %d freezes %b: CanAdvanceAll %s, fresh prediction %s", seed, cycle, frz, got, want)
				}
				if got, want := fmt.Sprint(s.Contentions()), fmt.Sprint(fresh.Contentions()); got != want {
					t.Fatalf("seed %d cycle %d freezes %b: Contentions %s, fresh prediction %s", seed, cycle, frz, got, want)
				}
			}
			for id := 0; id < n; id++ {
				s.SetFrozen(id, 0)
				s.SetHeld(id, false)
			}
			if got := s.releaseEpoch - epoch; got != 1 {
				t.Fatalf("seed %d cycle %d: %d predictions for one state, want 1", seed, cycle, got)
			}
			s.Step()
			if s.predicted {
				t.Fatalf("seed %d cycle %d: the prediction survived a step", seed, cycle)
			}
		}
	}
}
