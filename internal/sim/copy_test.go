package sim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/topology"
)

// copyFixture is a two-message sim on the line network, stepped a few
// cycles so messages hold channels and buffers are populated.
func copyFixture(t *testing.T) *Sim {
	t.Helper()
	net := line(5)
	s := New(net, Config{})
	s.MustAdd(MessageSpec{Src: 0, Dst: 4, Length: 3, Path: pathTo(net, 4)})
	s.MustAdd(MessageSpec{Src: 1, Dst: 3, Length: 2, Path: []topology.ChannelID{1, 2}, InjectAt: 1})
	for i := 0; i < 3; i++ {
		s.Step()
	}
	return s
}

func TestEncodeToZeroAllocs(t *testing.T) {
	s := copyFixture(t)
	buf := make([]byte, 0, 256)
	s.EncodeTo(&buf)
	if len(buf) == 0 {
		t.Fatal("EncodeTo produced no bytes")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		s.EncodeTo(&buf)
	})
	if allocs != 0 {
		t.Fatalf("EncodeTo allocated %.1f times per run with a pre-sized buffer; want 0", allocs)
	}
}

func TestEncodeToDistinguishesStates(t *testing.T) {
	s := copyFixture(t)
	var a, b []byte
	s.EncodeTo(&a)
	s.Step()
	s.EncodeTo(&b)
	if bytes.Equal(a, b) {
		t.Fatal("distinct states encoded identically")
	}
}

func TestCopyFromMatchesClone(t *testing.T) {
	src := copyFixture(t)
	clone := src.Clone()

	// A pooled sim from the same network, previously used for a different
	// state, must become indistinguishable from src after CopyFrom.
	dst := src.Clone()
	dst.Step()
	dst.Step()
	dst.CopyFrom(src)

	var want, got, viaClone []byte
	src.EncodeTo(&want)
	dst.EncodeTo(&got)
	clone.EncodeTo(&viaClone)
	if !bytes.Equal(want, got) {
		t.Fatalf("CopyFrom state differs from source:\n  src %x\n  dst %x", want, got)
	}
	if !bytes.Equal(want, viaClone) {
		t.Fatalf("Clone state differs from source")
	}

	// The copy must evolve independently of the source.
	dst.Step()
	var after []byte
	src.EncodeTo(&after)
	if !bytes.Equal(want, after) {
		t.Fatal("stepping the copy mutated the source")
	}
}

func TestCopyFromStepsLikeOriginal(t *testing.T) {
	src := copyFixture(t)
	dst := src.Clone()
	dst.Step() // desync, then restore
	dst.CopyFrom(src)
	for i := 0; i < 10; i++ {
		src.Step()
		dst.Step()
		var a, b []byte
		src.EncodeTo(&a)
		dst.EncodeTo(&b)
		if !bytes.Equal(a, b) {
			t.Fatalf("step %d: copy diverged from original", i)
		}
	}
}

func TestCopyFromRejectsDifferentNetworks(t *testing.T) {
	a := New(line(3), Config{})
	b := New(line(3), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across networks did not panic")
		}
	}()
	a.CopyFrom(b)
}

// recordingArbiter counts grants and deep-copies itself for clones.
type recordingArbiter struct{ grants int }

func (a *recordingArbiter) Pick(_ *Sim, _ topology.ChannelID, contenders []int) int {
	a.grants++
	return contenders[0]
}

func (a *recordingArbiter) CloneArbiter() Arbiter {
	cp := *a
	return &cp
}

func TestCloneDeepCopiesArbiterState(t *testing.T) {
	net := line(4)
	root := &recordingArbiter{}
	s := New(net, Config{Arbiter: root})
	// Two messages contending for channel 0 force an arbitration.
	s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 2, Path: pathTo(net, 3)})
	s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: pathTo(net, 2)})

	c := s.Clone()
	for i := 0; i < 6; i++ {
		c.Step()
	}
	if root.grants != 0 {
		t.Fatalf("stepping a clone mutated the original's arbiter (%d grants)", root.grants)
	}

	pooled := s.Clone()
	pooled.Step()
	before := root.grants
	pooled.CopyFrom(s)
	pooled.Step()
	if root.grants != before {
		t.Fatal("stepping a CopyFrom'd sim mutated the original's arbiter")
	}
}

func TestBuiltinArbitersAreStateless(t *testing.T) {
	for _, a := range []Arbiter{FIFOArbiter{}, PriorityArbiter{}, LowestIDArbiter{}} {
		if _, ok := a.(StatelessArbiter); !ok {
			t.Fatalf("%T does not declare StatelessArbiter", a)
		}
	}
}

// TestCarvedSlotsStayIsolated: Add cuts each message's path and queue
// from shared slab chunks as capacity-limited slices. Growing one
// message's storage — a Reset slot refilled with a longer path, an
// adaptive route extended hop by hop, CopyFrom of a longer path — must
// move that message to new storage, never write into its neighbour's.
func TestCarvedSlotsStayIsolated(t *testing.T) {
	net := line(8)
	seg := func(a, b int) []topology.ChannelID {
		var p []topology.ChannelID
		for c := a; c < b; c++ {
			p = append(p, topology.ChannelID(c))
		}
		return p
	}
	check := func(what string, s *Sim, want ...[]topology.ChannelID) {
		t.Helper()
		for id, w := range want {
			m := &s.msgs[id]
			if !slices.Equal(m.path, w) || len(m.queued) != len(w) {
				t.Fatalf("%s: message %d path %v with %d queue slots, want %v", what, id, m.path, len(m.queued), w)
			}
		}
	}
	carved := func() *Sim {
		s := New(net, Config{})
		s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: seg(0, 2)})
		s.MustAdd(MessageSpec{Src: 2, Dst: 4, Length: 2, Path: seg(2, 4)})
		s.MustAdd(MessageSpec{Src: 4, Dst: 5, Length: 1, Path: seg(4, 5)})
		return s
	}

	// Reset: slot 0 turns adaptive and grows past its two carved entries,
	// slot 2 is refilled with a longer path than it was carved for.
	s := carved()
	s.Reset()
	s.MustAdd(MessageSpec{Src: 0, Dst: 6, Length: 2,
		Route: func(at topology.NodeID, _ topology.ChannelID, _ topology.NodeID) []topology.ChannelID {
			return []topology.ChannelID{topology.ChannelID(at)}
		}})
	s.MustAdd(MessageSpec{Src: 2, Dst: 4, Length: 2, Path: seg(2, 4)})
	s.MustAdd(MessageSpec{Src: 5, Dst: 7, Length: 3, Path: seg(5, 7)})
	if out := s.Run(1000); out.Result != ResultDelivered {
		t.Fatalf("Reset run: %v", out.Result)
	}
	check("Reset", s, seg(0, 6), seg(2, 4), seg(5, 7))

	// CopyFrom a state whose first message has the longer path.
	src := New(net, Config{})
	src.MustAdd(MessageSpec{Src: 0, Dst: 7, Length: 3, Path: seg(0, 7)})
	src.MustAdd(MessageSpec{Src: 2, Dst: 4, Length: 2, Path: seg(2, 4)})
	src.MustAdd(MessageSpec{Src: 4, Dst: 5, Length: 1, Path: seg(4, 5)})
	for i := 0; i < 3; i++ {
		src.Step()
	}
	dst := carved()
	dst.CopyFrom(src)
	check("CopyFrom", dst, seg(0, 7), seg(2, 4), seg(4, 5))
	var want, got []byte
	src.EncodeTo(&want)
	dst.EncodeTo(&got)
	if !bytes.Equal(want, got) {
		t.Fatalf("CopyFrom state differs from source:\n  src %x\n  dst %x", want, got)
	}
}

// TestRecycledSlotsKeepSharedSpecs: clones share their source's message
// specs, so recycling either side with Reset and Add must give the new
// message a spec of its own rather than rewrite the shared one.
func TestRecycledSlotsKeepSharedSpecs(t *testing.T) {
	net := line(5)
	orig := MessageSpec{Src: 0, Dst: 4, Length: 3, Path: pathTo(net, 4), Label: "orig"}
	repl := MessageSpec{Src: 1, Dst: 3, Length: 2, Path: []topology.ChannelID{1, 2}, Label: "repl"}
	for _, recycle := range []string{"source", "copy"} {
		src := New(net, Config{})
		src.MustAdd(orig)
		dst := src.Clone()
		keep, reuse := dst, src
		if recycle == "copy" {
			keep, reuse = src, dst
		}
		reuse.Reset()
		reuse.MustAdd(repl)
		if got := keep.Message(0).Spec; got.Label != "orig" || got.Length != 3 || got.Src != 0 {
			t.Fatalf("recycling the %s rewrote the other side's spec: %+v", recycle, got)
		}
		if got := reuse.Message(0).Spec; got.Label != "repl" || got.Length != 2 {
			t.Fatalf("recycled %s reports spec %+v", recycle, got)
		}
	}

	// A copy that shrinks the message table parks slots that still point
	// at the old source's specs; Add must not write into them either.
	src := New(net, Config{})
	src.MustAdd(repl)
	src.MustAdd(orig)
	dst := src.Clone()
	dst.CopyFrom(New(net, Config{}))
	dst.MustAdd(repl)
	dst.MustAdd(repl)
	if got := src.Message(1).Spec; got.Label != "orig" {
		t.Fatalf("Add into a parked slot rewrote the source's spec: %+v", got)
	}
}

// TestCopyFromCarriesFaultState: CopyFrom skips the per-channel fault
// table when neither side has a channel down, so a copy must still clear
// a pooled destination's stale outage and carry the source's.
func TestCopyFromCarriesFaultState(t *testing.T) {
	clean := copyFixture(t)
	faulty := clean.Clone()
	faulty.SetChannelDown(3, DownForever)

	dst := faulty.Clone()
	dst.CopyFrom(clean)
	if dst.ChannelDown(3) {
		t.Fatal("CopyFrom from a fault-free source kept the destination's outage")
	}
	dst.CopyFrom(faulty)
	if !dst.ChannelDown(3) {
		t.Fatal("CopyFrom dropped the source's outage")
	}
	for _, src := range []*Sim{clean, faulty} {
		dst.CopyFrom(src)
		var want, got []byte
		src.EncodeTo(&want)
		dst.EncodeTo(&got)
		if !bytes.Equal(want, got) {
			t.Fatalf("copy encodes as %x, source as %x", got, want)
		}
	}
}
