package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

// line returns a unidirectional chain 0 -> 1 -> ... -> n-1 with a back
// channel from the last node to node 0 so validation (strong connectivity)
// holds if anyone cares; the back channel is unused by tests.
func line(n int) *topology.Network {
	net := topology.New("line")
	net.AddNodes(n)
	for i := 0; i < n-1; i++ {
		net.AddChannel(topology.NodeID(i), topology.NodeID(i+1), 0, "")
	}
	net.AddChannel(topology.NodeID(n-1), 0, 0, "back")
	return net
}

// pathTo returns channels 0..h-1 of the line network (the first h hops).
func pathTo(net *topology.Network, h int) []topology.ChannelID {
	p := make([]topology.ChannelID, h)
	for i := range p {
		p[i] = topology.ChannelID(i)
	}
	return p
}

func TestAddValidation(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	cases := []MessageSpec{
		{Src: 0, Dst: 2, Length: 0, Path: pathTo(net, 2)},               // bad length
		{Src: 0, Dst: 0, Length: 1, Path: pathTo(net, 2)},               // src == dst
		{Src: 0, Dst: 2, Length: 1, Path: nil},                          // no path
		{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 1)},               // wrong path end
		{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2), InjectAt: -1}, // negative time
	}
	for i, spec := range cases {
		if _, err := s.Add(spec); err == nil {
			t.Fatalf("case %d should fail: %+v", i, spec)
		}
	}
	if id, err := s.Add(MessageSpec{Src: 0, Dst: 2, Length: 3, Path: pathTo(net, 2)}); err != nil || id != 0 {
		t.Fatalf("valid Add = %d, %v", id, err)
	}
}

func TestSingleMessagePipelineLatency(t *testing.T) {
	// H hops, L flits, buffer depth 1: delivery at cycle H + L - 1.
	for _, tc := range []struct{ h, l int }{{1, 1}, {3, 1}, {1, 4}, {4, 3}, {5, 5}} {
		net := line(tc.h + 1)
		s := New(net, Config{})
		id := s.MustAdd(MessageSpec{Src: 0, Dst: topology.NodeID(tc.h), Length: tc.l, Path: pathTo(net, tc.h)})
		out := s.Run(1000)
		if out.Result != ResultDelivered {
			t.Fatalf("h=%d l=%d: result %v", tc.h, tc.l, out.Result)
		}
		mv := s.Message(id)
		want := tc.h + tc.l - 1
		if mv.DeliveredAt != want {
			t.Fatalf("h=%d l=%d: deliveredAt = %d; want %d", tc.h, tc.l, mv.DeliveredAt, want)
		}
		if mv.InjectedAt != 0 {
			t.Fatalf("injectedAt = %d", mv.InjectedAt)
		}
	}
}

func TestWormholePipelining(t *testing.T) {
	// With buffer depth 1 a 3-flit worm on a 3-hop path occupies 3 channels
	// simultaneously mid-flight.
	net := line(4)
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 3, Path: pathTo(net, 3)})
	s.Step() // header -> c0
	s.Step() // header -> c1, flit2 -> c0
	s.Step() // header -> c2, flit2 -> c1, flit3 -> c0
	mv := s.Message(id)
	if mv.Queued[0] != 1 || mv.Queued[1] != 1 || mv.Queued[2] != 1 {
		t.Fatalf("queued = %v; want [1 1 1]", mv.Queued)
	}
	for c := 0; c < 3; c++ {
		if s.Owner(topology.ChannelID(c)) != id {
			t.Fatalf("channel %d owner = %d", c, s.Owner(topology.ChannelID(c)))
		}
	}
}

func TestChannelReleaseAfterTail(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	s.Step() // header -> c0
	if s.Owner(0) != id {
		t.Fatal("c0 should be owned after injection")
	}
	s.Step() // header (also tail) -> c1; c0 released at end of cycle
	if s.Owner(0) != -1 {
		t.Fatal("c0 should be released after the tail leaves")
	}
	if s.Owner(1) != id {
		t.Fatal("c1 should be owned")
	}
	s.Step() // consumed
	if s.Owner(1) != -1 {
		t.Fatal("c1 should be released after consumption")
	}
	if !s.AllDelivered() {
		t.Fatal("message should be delivered")
	}
}

func TestAtomicBufferAllocationStrict(t *testing.T) {
	// Message B may acquire a channel only strictly after A's tail left it:
	// same-cycle release+acquire must not happen.
	net := line(3)
	s := New(net, Config{})
	a := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2), Label: "A"})
	b := s.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 1, Path: pathTo(net, 1), InjectAt: 1, Label: "B"})
	s.Step() // A's header -> c0. B not ready yet.
	s.Step() // A moves to c1 and releases c0 at END of cycle; B requests c0 but it was owned at snapshot.
	if s.Message(b).Injected != 0 {
		t.Fatal("B must not inject in the same cycle A releases c0")
	}
	s.Step() // now B acquires c0
	if s.Message(b).Injected != 1 {
		t.Fatal("B should inject once c0 is free")
	}
	_ = a
}

func TestArbitrationSingleWinner(t *testing.T) {
	// Two messages inject into the same channel at cycle 0; exactly one
	// wins; the other follows after the first's tail clears.
	net := line(3)
	s := New(net, Config{Arbiter: PriorityArbiter{}})
	a := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: pathTo(net, 2), Label: "A"})
	b := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: pathTo(net, 2), Label: "B"})
	cons := s.Contentions()
	if len(cons) != 1 || cons[0].Channel != 0 || len(cons[0].Contenders) != 2 {
		t.Fatalf("contentions = %+v", cons)
	}
	s.Step()
	if s.Message(a).Injected != 1 || s.Message(b).Injected != 0 {
		t.Fatalf("after arbitration: A=%d B=%d flits injected", s.Message(a).Injected, s.Message(b).Injected)
	}
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
	if s.Message(b).DeliveredAt <= s.Message(a).DeliveredAt {
		t.Fatal("B should finish after A")
	}
}

func TestFIFOArbiterStarvationFree(t *testing.T) {
	// A long-waiting message beats a newcomer under FIFO arbitration.
	net := line(3)
	s := New(net, Config{})
	blocker := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 3, Path: pathTo(net, 2), Label: "blocker"})
	waiter := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2), InjectAt: 1, Label: "waiter"})
	newcomer := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2), InjectAt: 4, Label: "newcomer"})
	_ = blocker
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
	if s.Message(newcomer).DeliveredAt <= s.Message(waiter).DeliveredAt {
		t.Fatalf("newcomer delivered at %d before waiter at %d",
			s.Message(newcomer).DeliveredAt, s.Message(waiter).DeliveredAt)
	}
}

func TestPriorityArbiter(t *testing.T) {
	net := line(3)
	s := New(net, Config{Arbiter: PriorityArbiter{Order: []int{1}}})
	a := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	b := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	s.Step()
	if s.Message(b).Injected != 1 || s.Message(a).Injected != 0 {
		t.Fatal("priority order not respected")
	}
}

// ringDeadlock builds the canonical 4-node unidirectional ring deadlock:
// four messages, each two hops, all injected at cycle 0.
func ringDeadlock(t *testing.T, length int) (*Sim, []int) {
	t.Helper()
	net := topology.NewRing(4, false)
	s := New(net, Config{})
	var ids []int
	for i := 0; i < 4; i++ {
		src := topology.NodeID(i)
		dst := topology.NodeID((i + 2) % 4)
		path := []topology.ChannelID{topology.ChannelID(i), topology.ChannelID((i + 1) % 4)}
		id := s.MustAdd(MessageSpec{Src: src, Dst: dst, Length: length, Path: path})
		ids = append(ids, id)
	}
	return s, ids
}

func TestRingDeadlockDetected(t *testing.T) {
	s, ids := ringDeadlock(t, 2)
	out := s.Run(1000)
	if out.Result != ResultDeadlock {
		t.Fatalf("result = %v; want deadlock", out.Result)
	}
	if len(out.Undelivered) != 4 {
		t.Fatalf("undelivered = %v; want all four", out.Undelivered)
	}
	// Every message waits on a channel held by the next one: Definition 6.
	for i, id := range ids {
		ch, owner, ok := s.WaitsFor(id)
		if !ok {
			t.Fatalf("message %d not blocked", id)
		}
		wantOwner := ids[(i+1)%4]
		if owner != wantOwner {
			t.Fatalf("message %d waits on %d held by %d; want %d", id, ch, owner, wantOwner)
		}
	}
}

func TestRingSingleFlitStillDeadlocks(t *testing.T) {
	// Even one-flit messages deadlock on the ring: each header holds its
	// first channel while waiting for the second.
	s, _ := ringDeadlock(t, 1)
	out := s.Run(1000)
	if out.Result != ResultDeadlock {
		t.Fatalf("result = %v; want deadlock", out.Result)
	}
}

func TestRingNoDeadlockWhenStaggered(t *testing.T) {
	// If the messages run one at a time there is no deadlock.
	net := topology.NewRing(4, false)
	s := New(net, Config{})
	for i := 0; i < 4; i++ {
		s.MustAdd(MessageSpec{
			Src: topology.NodeID(i), Dst: topology.NodeID((i + 2) % 4),
			Length:   2,
			Path:     []topology.ChannelID{topology.ChannelID(i), topology.ChannelID((i + 1) % 4)},
			InjectAt: i * 10,
		})
	}
	out := s.Run(1000)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v; want delivered", out.Result)
	}
}

func TestFreezeStopsMessage(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	s.SetFrozen(id, 3)
	s.Step()
	s.Step()
	s.Step()
	if s.Message(id).Injected != 0 {
		t.Fatal("frozen message must not move")
	}
	if s.Frozen(id) != 0 {
		t.Fatalf("frozen counter = %d; want 0", s.Frozen(id))
	}
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
}

func TestFreezeMidFlightHoldsChannels(t *testing.T) {
	net := line(4)
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 2, Path: pathTo(net, 3)})
	s.Step() // header in c0
	s.SetFrozen(id, 5)
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if s.Owner(0) != id {
		t.Fatal("frozen message must keep its channels")
	}
	if got := s.Message(id).Queued[0]; got != 1 {
		t.Fatalf("queued[0] = %d", got)
	}
}

func TestHeldMessageDoesNotInject(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	s.SetHeld(id, true)
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if s.Message(id).Injected != 0 {
		t.Fatal("held message must not inject")
	}
	s.SetHeld(id, false)
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
}

func TestRunTreatsHeldAsNonQuiescent(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	s.SetHeld(0, true)
	out := s.Run(10)
	if out.Result != ResultTimeout {
		t.Fatalf("result = %v; a held message is not a deadlock", out.Result)
	}
}

// TestHoldAfterInjectionHasNoEffect: holding a message whose header has
// entered the network leaves its injection alone. Its flits follow the
// header without a gap, step for step with an unheld twin, and a blocked
// held worm still reads as quiescent. Stopping the remaining flits at the
// source left a gapped worm, [1 0 0 1 0 0 0 0] on this ring with one-flit
// buffers.
func TestHoldAfterInjectionHasNoEffect(t *testing.T) {
	net := topology.NewRing(18, false)
	path := make([]topology.ChannelID, 8)
	for i := range path {
		path[i] = topology.ChannelID(i)
	}
	spec := MessageSpec{Src: 0, Dst: 8, Length: 4, Path: path}
	held, twin := New(net, Config{}), New(net, Config{})
	id := held.MustAdd(spec)
	twin.MustAdd(spec)
	for cycle := 0; !twin.AllDelivered(); cycle++ {
		if cycle == 1 {
			held.SetHeld(id, true)
		}
		held.Step()
		twin.Step()
		got, want := held.Message(id), twin.Message(id)
		got.Held = false
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: held message diverged from its twin:\n%+v\n%+v", cycle, got, want)
		}
		q, tail := got.Queued, len(got.Queued)
		for tail > 0 && q[tail-1] == 0 {
			tail--
		}
		if h := slices.Index(q, 0); got.Injected < got.Spec.Length && h >= 0 && h < tail {
			t.Fatalf("cycle %d: gapped worm %v", cycle, q)
		}
	}
	if !held.AllDelivered() {
		t.Fatal("the held message was not delivered with its twin")
	}

	// A held worm blocked behind another is a deadlock, not a hold.
	block := New(net, Config{})
	block.MustAdd(MessageSpec{Src: 2, Dst: 1, Length: 17, Path: []topology.ChannelID{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 0}})
	id = block.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 4, Path: path[:3]})
	block.Step()
	block.SetHeld(id, true)
	if out := block.Run(200); out.Result != ResultDeadlock {
		t.Fatalf("result = %v; a held worm that has begun injecting does not hold off deadlock detection", out.Result)
	}
}

func TestBufferDepthTwoPipelines(t *testing.T) {
	// With deeper buffers, flits accumulate behind a blocked header.
	net := line(3)
	s := New(net, Config{BufferDepth: 2})
	blocker := s.MustAdd(MessageSpec{Src: 1, Dst: 2, Length: 10, Path: []topology.ChannelID{1}})
	msg := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 3, Path: pathTo(net, 2), InjectAt: 1})
	_ = blocker
	// Step until msg's header is blocked at c0 waiting for c1.
	for i := 0; i < 4; i++ {
		s.Step()
	}
	mv := s.Message(msg)
	if mv.Queued[0] != 2 {
		t.Fatalf("queued[0] = %d; want 2 (header plus one data flit)", mv.Queued[0])
	}
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
}

// encOf returns s's EncodeTo bytes as a string, for comparing states.
func encOf(s *Sim) string {
	var b []byte
	s.EncodeTo(&b)
	return string(b)
}

func TestCloneIndependence(t *testing.T) {
	net := line(4)
	s := New(net, Config{})
	s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 3, Path: pathTo(net, 3)})
	s.Step() // header in c0: state will keep evolving
	c := s.Clone()
	if encOf(c) != encOf(s) {
		t.Fatal("clone should encode identically")
	}
	s.Step()
	s.Step()
	if encOf(c) == encOf(s) {
		t.Fatal("advancing the original must not affect the clone")
	}
	// The clone still runs to completion on its own.
	if out := c.Run(100); out.Result != ResultDelivered {
		t.Fatalf("clone result = %v", out.Result)
	}
	// Cloning a deadlocked state preserves the deadlock.
	d, _ := ringDeadlock(t, 2)
	d.Step()
	if out := d.Clone().Run(100); out.Result != ResultDeadlock {
		t.Fatalf("deadlocked clone result = %v", out.Result)
	}
}

func TestEncodeDistinguishesFrozenAndHeld(t *testing.T) {
	net := line(3)
	mk := func() *Sim {
		s := New(net, Config{})
		s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: pathTo(net, 2)})
		return s
	}
	a, b, c := mk(), mk(), mk()
	b.SetFrozen(0, 2)
	c.SetHeld(0, true)
	if encOf(a) == encOf(b) || encOf(a) == encOf(c) || encOf(b) == encOf(c) {
		t.Fatal("encodings must distinguish frozen/held states")
	}
}

func TestStatsCollection(t *testing.T) {
	net := line(4)
	s := New(net, Config{})
	s.MustAdd(MessageSpec{Src: 0, Dst: 3, Length: 2, Path: pathTo(net, 3)})
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
	st := Collect(s)
	if st.Delivered != 1 || st.Messages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Latency = deliveredAt - injectedAt + 1 = (3+2-1) - 0 + 1 = 5.
	if st.AvgLatency != 5 || st.MaxLatency != 5 {
		t.Fatalf("latency = %v/%v; want 5", st.AvgLatency, st.MaxLatency)
	}
	if st.FlitsMoved != 2 {
		t.Fatalf("flits = %d", st.FlitsMoved)
	}
	if st.Throughput <= 0 {
		t.Fatal("throughput should be positive")
	}
}

func TestStepWithPicks(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	a := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	b := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	s.StepWithPicks(map[topology.ChannelID]int{0: b})
	if s.Message(b).Injected != 1 || s.Message(a).Injected != 0 {
		t.Fatal("explicit pick not honored")
	}
}

func TestStepWithStalePickPanics(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-contender pick")
		}
	}()
	s.StepWithPicks(map[topology.ChannelID]int{0: 99})
}

func TestWaitsForReportsBlocking(t *testing.T) {
	net := line(3)
	s := New(net, Config{})
	blocker := s.MustAdd(MessageSpec{Src: 1, Dst: 2, Length: 10, Path: []topology.ChannelID{1}})
	victim := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 1, Path: pathTo(net, 2), InjectAt: 1})
	s.Step() // blocker acquires c1
	s.Step() // victim injects into c0
	s.Step() // victim blocked on c1
	ch, owner, ok := s.WaitsFor(victim)
	if !ok || ch != 1 || owner != blocker {
		t.Fatalf("WaitsFor = %v,%v,%v", ch, owner, ok)
	}
	// The blocker itself is not waiting (it is consuming).
	if _, _, ok := s.WaitsFor(blocker); ok {
		t.Fatal("blocker should not be reported waiting")
	}
}

func TestInjectionBlockedMessageWaits(t *testing.T) {
	// A ready message whose first channel is occupied reports WaitsFor.
	net := line(3)
	s := New(net, Config{})
	blocker := s.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 10, Path: pathTo(net, 2)})
	victim := s.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 1, Path: pathTo(net, 1), InjectAt: 1})
	s.Step()
	s.Step()
	ch, owner, ok := s.WaitsFor(victim)
	if !ok || ch != 0 || owner != blocker {
		t.Fatalf("WaitsFor = %v,%v,%v", ch, owner, ok)
	}
}

func TestResultString(t *testing.T) {
	if ResultDelivered.String() != "delivered" || ResultDeadlock.String() != "deadlock" || ResultTimeout.String() != "timeout" {
		t.Fatal("Result strings wrong")
	}
	if Result(9).String() == "" {
		t.Fatal("unknown result should still render")
	}
}

func TestLongMessageShortPath(t *testing.T) {
	// Length far exceeding the path: source keeps feeding while the sink
	// drains; delivery at H + L - 1.
	net := line(2)
	s := New(net, Config{})
	id := s.MustAdd(MessageSpec{Src: 0, Dst: 1, Length: 10, Path: pathTo(net, 1)})
	out := s.Run(100)
	if out.Result != ResultDelivered {
		t.Fatalf("result = %v", out.Result)
	}
	if got := s.Message(id).DeliveredAt; got != 10 {
		t.Fatalf("deliveredAt = %d; want 10", got)
	}
}
