package sim

import (
	"bytes"
	"reflect"
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

// TestCarvedSlotsStayIsolated: every message owns fixed ranges of the
// simulator's flat flits and hops arrays. Growing one message — a Reset
// slot refilled with a longer path, an adaptive route extended past the
// room Add reserved for it, CopyFrom of a longer path — must size or move
// that message's ranges, never write into a neighbour's; writing into one
// message's range changes no other message; and stepping a copy never
// changes its source.
func TestCarvedSlotsStayIsolated(t *testing.T) {
	net := line(20)
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
			if !slices.Equal(s.path(m), w) || len(s.queue(m)) != len(w) {
				t.Fatalf("%s: message %d path %v with %d queue slots, want %v", what, id, s.path(m), len(s.queue(m)), w)
			}
		}
		// No two messages' ranges overlap, in flits or in hops.
		for i := range s.msgs {
			for j := range i {
				a, b := &s.msgs[i], &s.msgs[j]
				if a.off < b.off+b.room && b.off < a.off+a.room {
					t.Fatalf("%s: messages %d and %d share flit slots", what, i, j)
				}
				if a.adaptive && b.adaptive && a.hop < b.hop+b.room && b.hop < a.hop+a.room {
					t.Fatalf("%s: messages %d and %d share route slots", what, i, j)
				}
			}
		}
	}
	views := func(s *Sim) []MsgView {
		var out []MsgView
		for id := 0; id < s.NumMessages(); id++ {
			v := s.Message(id)
			v.Spec.Route = nil // funcs do not compare
			out = append(out, v)
		}
		return out
	}
	carved := func() *Sim {
		s := New(net, Config{})
		s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: seg(0, 2)})
		s.MustAdd(MessageSpec{Src: 2, Dst: 4, Length: 2, Path: seg(2, 4)})
		s.MustAdd(MessageSpec{Src: 4, Dst: 5, Length: 1, Path: seg(4, 5)})
		return s
	}

	// Reset: slot 0 turns adaptive and its route outgrows the room Add
	// reserves, slot 2 is refilled with a longer path than it had.
	s := carved()
	s.Reset()
	s.MustAdd(MessageSpec{Src: 0, Dst: 19, Length: 2,
		Route: func(at topology.NodeID, _ topology.ChannelID, _ topology.NodeID) []topology.ChannelID {
			return []topology.ChannelID{topology.ChannelID(at)}
		}})
	s.MustAdd(MessageSpec{Src: 2, Dst: 4, Length: 2, Path: seg(2, 4)})
	s.MustAdd(MessageSpec{Src: 5, Dst: 7, Length: 3, Path: seg(5, 7)})
	if room := s.msgs[0].room; room >= 19 {
		t.Fatalf("test bug: the adaptive route fits the %d slots Add reserved", room)
	}
	if out := s.Run(1000); out.Result != ResultDelivered {
		t.Fatalf("Reset run: %v", out.Result)
	}
	check("Reset", s, seg(0, 19), seg(2, 4), seg(5, 7))

	// Writing into one message's ranges leaves the others as they were.
	mid := carved()
	mid.Step()
	mid.Step()
	before := views(mid)
	for i := range mid.queue(&mid.msgs[1]) {
		mid.queue(&mid.msgs[1])[i] = 99
	}
	after := views(mid)
	for _, id := range []int{0, 2} {
		if !reflect.DeepEqual(before[id], after[id]) {
			t.Fatalf("writing message 1's flit slots changed message %d:\n  %+v\n  %+v", id, before[id], after[id])
		}
	}

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
	srcViews := views(src)
	for i := 0; i < 4; i++ {
		dst.Step()
	}
	if !reflect.DeepEqual(views(src), srcViews) {
		t.Fatal("stepping the copy changed the source")
	}
}

// TestRecycledSlotsKeepSharedSpecs: clones share their source's specs
// array, so recycling either side with Reset and Add must give the new
// message a spec slot of its own rather than rewrite a shared one, and
// must leave the other side's flit and route ranges alone.
func TestRecycledSlotsKeepSharedSpecs(t *testing.T) {
	net := line(5)
	orig := MessageSpec{Src: 0, Dst: 4, Length: 3, Path: pathTo(net, 4), Label: "orig"}
	repl := MessageSpec{Src: 1, Dst: 3, Length: 2, Path: []topology.ChannelID{1, 2}, Label: "repl"}
	for _, recycle := range []string{"source", "copy"} {
		src := New(net, Config{})
		src.MustAdd(orig)
		src.Step()
		dst := src.Clone()
		keep, reuse := dst, src
		if recycle == "copy" {
			keep, reuse = src, dst
		}
		var want []byte
		keep.EncodeTo(&want)
		reuse.Reset()
		reuse.MustAdd(repl)
		reuse.Step()
		if got := keep.Message(0).Spec; got.Label != "orig" || got.Length != 3 || got.Src != 0 {
			t.Fatalf("recycling the %s rewrote the other side's spec: %+v", recycle, got)
		}
		if got := reuse.Message(0).Spec; got.Label != "repl" || got.Length != 2 {
			t.Fatalf("recycled %s reports spec %+v", recycle, got)
		}
		var got []byte
		keep.EncodeTo(&got)
		if !bytes.Equal(want, got) {
			t.Fatalf("recycling the %s changed the other side's state:\n  %x\n  %x", recycle, want, got)
		}
	}

	// A copy that shrinks the message table keeps a view of the old
	// source's specs array; Add must not write into it either.
	src := New(net, Config{})
	src.MustAdd(repl)
	src.MustAdd(orig)
	dst := src.Clone()
	dst.CopyFrom(New(net, Config{}))
	dst.MustAdd(repl)
	dst.MustAdd(repl)
	if got := src.Message(1).Spec; got.Label != "orig" {
		t.Fatalf("Add after a shrinking copy rewrote the source's spec: %+v", got)
	}
}
