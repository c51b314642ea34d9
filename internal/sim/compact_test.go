package sim

import (
	"reflect"
	"testing"

	"repro/internal/obsv"
	"repro/internal/topology"
)

// compactNet picks the network of a Compact parity scenario: a small
// bidirectional ring, an 18-node ring whose clockwise routes outgrow an
// adaptive message's first 16 route slots (widen), or a small mesh.
func compactNet(b byte) *topology.Network {
	switch b % 4 {
	case 0:
		return topology.NewRing(5+int(b/4)%3, true)
	case 1:
		return topology.NewRing(18, true)
	case 2:
		return topology.NewMesh([]int{3, 3}, 1).Network
	}
	return topology.NewMesh([]int{2, 4}, 1).Network
}

// minimalRoute offers every channel that brings an adaptive message
// closer to its destination.
func minimalRoute(net *topology.Network) RouteFunc {
	dist := net.Distances()
	return func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		var out []topology.ChannelID
		for _, c := range net.Out(at) {
			if dist[net.Channel(c).Dst][dst] < dist[at][dst] {
				out = append(out, c)
			}
		}
		return out
	}
}

// wanderRoute offers every channel leaving the node: routes run long,
// past the 16 slots Add reserves, and may strand a message that has used
// every way out.
func wanderRoute(net *topology.Network) RouteFunc {
	return func(at topology.NodeID, _ topology.ChannelID, _ topology.NodeID) []topology.ChannelID {
		return net.Out(at)
	}
}

// compactBytes reads a Compact parity scenario's bytes, then zeros.
type compactBytes []byte

func (b *compactBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// sameView reports whether two message views agree field for field,
// apart from the ID and the adaptive route function, which compare by
// presence.
func sameView(a, b MsgView) bool {
	if (a.Spec.Route == nil) != (b.Spec.Route == nil) {
		return false
	}
	a.ID, b.ID = 0, 0
	a.Spec.Route, b.Spec.Route = nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzCompactParity: a simulator that compacts every few cycles steps in
// lockstep with a plain twin fed the same messages, freezes and holds.
// Every cycle the two agree on Moved, FlitsConsumed, AllDelivered and
// Quiescent, on every channel's owner and on every survivor's Message
// view, mapped through Compact's ID map; Compact drops exactly the
// delivered messages whose freeze has run out. Scenarios cover buffer
// depths 1-3, both handoff readings, FIFO and the zero PriorityArbiter,
// freezes on delivered messages, and adaptive routes long enough to widen.
func FuzzCompactParity(f *testing.F) {
	for i := 0; i < 16; i++ {
		seed := []byte{byte(i), byte(i * 37)}
		for j := 0; j < 40; j++ {
			seed = append(seed, byte(i*7+j*13), byte(j*29+i), byte(j*5+3), byte(i+j), byte(j*11), byte(j))
		}
		f.Add(seed)
	}
	f.Fuzz(compactParity)
}

func compactParity(t *testing.T, data []byte) {
	in := compactBytes(data)
	net := compactNet(in.next())
	opts := in.next()
	cfg := Config{BufferDepth: 1 + int(opts%3), SameCycleHandoff: opts&4 != 0}
	if opts&8 != 0 {
		cfg.Arbiter = PriorityArbiter{}
	}
	every := 1 + int(opts>>4)%4
	routes := []RouteFunc{minimalRoute(net), wanderRoute(net)}
	plain, comp := New(net, cfg), New(net, cfg)
	var cur, idMap []int // cur[plain ID] = comp ID, -1 once dropped
	nodes := net.NumNodes()
	for cycle := 0; cycle < 200; cycle++ {
		if len(in) > 0 {
			op := in.next()
			if op&1 != 0 && len(cur) < 48 {
				spec := MessageSpec{
					Src:      topology.NodeID(int(in.next()) % nodes),
					Dst:      topology.NodeID(int(in.next()) % nodes),
					Length:   1 + int(in.next())%6,
					InjectAt: cycle + int(op>>5),
				}
				if kind := in.next(); kind%3 == 0 {
					spec.Path = net.ShortestPath(spec.Src, spec.Dst)
				} else {
					spec.Route = routes[kind%3-1]
				}
				_, perr := plain.Add(spec)
				id, cerr := comp.Add(spec)
				if (perr == nil) != (cerr == nil) {
					t.Fatalf("cycle %d: Add errors differ: %v / %v", cycle, perr, cerr)
				}
				if perr == nil {
					cur = append(cur, id)
				}
			}
			if op&2 != 0 && len(cur) > 0 {
				// Any message, delivered ones included, as long as the
				// compacted simulator still has it.
				id, n := int(in.next())%len(cur), 1+int(in.next())%4
				if c := cur[id]; c >= 0 {
					plain.SetFrozen(id, n)
					comp.SetFrozen(c, n)
				}
			}
			if op&4 != 0 && len(cur) > 0 {
				// Holds go only to messages that have not begun to
				// inject, the use search makes of them.
				id, held := int(in.next())%len(cur), op&8 != 0
				if c := cur[id]; c >= 0 && plain.Message(id).Injected == 0 {
					plain.SetHeld(id, held)
					comp.SetHeld(c, held)
				}
			}
		}
		pm, cm := plain.Step().Moved, comp.Step().Moved
		if pm != cm || plain.FlitsConsumed() != comp.FlitsConsumed() ||
			plain.AllDelivered() != comp.AllDelivered() || plain.Quiescent() != comp.Quiescent() {
			t.Fatalf("cycle %d: moved %v/%v, consumed %d/%d, all delivered %v/%v, quiescent %v/%v", cycle,
				pm, cm, plain.FlitsConsumed(), comp.FlitsConsumed(), plain.AllDelivered(), comp.AllDelivered(),
				plain.Quiescent(), comp.Quiescent())
		}
		if cycle%every == 0 {
			idMap = comp.Compact(idMap)
			for id, c := range cur {
				if c >= 0 {
					cur[id] = idMap[c]
				}
			}
			for id, c := range cur {
				droppable := plain.Delivered(id) && plain.Frozen(id) == 0
				if droppable != (c < 0) {
					t.Fatalf("cycle %d: m%d delivered %v, frozen %d, kept as %d", cycle, id, plain.Delivered(id), plain.Frozen(id), c)
				}
			}
		}
		checkInvariants(t, comp)
		for ch := range net.NumChannels() {
			c := topology.ChannelID(ch)
			want := plain.Owner(c)
			if want >= 0 {
				want = cur[want]
			}
			if got := comp.Owner(c); got != want {
				t.Fatalf("cycle %d: channel %d owned by %d, want %d", cycle, c, got, want)
			}
		}
		for id, c := range cur {
			if c < 0 {
				continue
			}
			if a, b := plain.Message(id), comp.Message(c); !sameView(a, b) {
				t.Fatalf("cycle %d: m%d (now %d) diverged:\n%+v\n%+v", cycle, id, c, a, b)
			}
		}
	}
}

// TestCompactLeavesClonesIntact: a clone taken before Compact shares
// the specs array; compacting and adding more messages must not write
// any slot the clone reads.
func TestCompactLeavesClonesIntact(t *testing.T) {
	net := line(5)
	s := New(net, Config{})
	for i := 0; i < 6; i++ {
		s.MustAdd(MessageSpec{Src: 0, Dst: topology.NodeID(1 + i%4), Length: 1 + i%3, Path: pathTo(net, 1+i%4), InjectAt: i, Label: "before"})
	}
	s.Run(100)
	clone := s.Clone()
	want := make([]MsgView, clone.NumMessages())
	for id := range want {
		want[id] = clone.Message(id)
	}
	if m := s.Compact(nil); len(m) != 6 || s.NumMessages() != 0 {
		t.Fatalf("Compact of six delivered messages: map %v, %d kept", m, s.NumMessages())
	}
	for i := 0; i < 8; i++ {
		s.MustAdd(MessageSpec{Src: 1, Dst: 4, Length: 2, Path: []topology.ChannelID{1, 2, 3}, Label: "after"})
	}
	for id := range want {
		if got := clone.Message(id); !reflect.DeepEqual(got, want[id]) {
			t.Fatalf("clone's m%d changed:\n%+v\n%+v", id, got, want[id])
		}
	}
}

// TestCompactRefusesTracer: trace events name messages by ID, so
// renumbering under an attached tracer panics.
func TestCompactRefusesTracer(t *testing.T) {
	s := New(line(3), Config{})
	s.SetTracer(obsv.Multi{})
	defer func() {
		if recover() == nil {
			t.Fatal("Compact with a tracer attached did not panic")
		}
	}()
	s.Compact(nil)
}
