package sim

import (
	"bytes"
	"testing"

	"repro/internal/topology"
)

// Decode tests: DecodeFrom must reconstruct a state whose re-encoding is
// byte-identical, whose derived structures (channel ownership, live
// accounting) match the original, and — for scenarios whose stepping is
// choice-free — whose future under Step is the original's future.

// decodeScenarios returns scenarios with every InjectAt already due (the
// EncodeTo/DecodeFrom contract), covering oblivious delivery, a cyclic
// deadlock, and adaptive route materialization.
func decodeScenarios() []Scenario {
	line := lineScenario()
	for i := range line.Msgs {
		line.Msgs[i].InjectAt = 0
	}
	line.Name = "line0"

	net, ch := diamond()
	adaptive := Scenario{
		Name: "diamond-adaptive",
		Net:  net,
		Msgs: []MessageSpec{
			{Src: 0, Dst: 3, Length: 3, Route: diamondRoute(net, ch)},
			{Src: 0, Dst: 3, Length: 2, Route: diamondRoute(net, ch)},
		},
	}
	return []Scenario{line, ringScenario4(), adaptive}
}

// decodeCheck decodes orig's current encoding into dst and asserts the
// round trip is exact on every observable the search relies on.
func decodeCheck(t *testing.T, cycle int, orig, dst *Sim) {
	t.Helper()
	var enc []byte
	orig.EncodeTo(&enc)
	if err := dst.DecodeFrom(enc); err != nil {
		t.Fatalf("cycle %d: DecodeFrom: %v", cycle, err)
	}
	var re []byte
	dst.EncodeTo(&re)
	if !bytes.Equal(enc, re) {
		t.Fatalf("cycle %d: re-encoding differs:\n%x\n%x", cycle, enc, re)
	}
	for c := 0; c < orig.net.NumChannels(); c++ {
		if got, want := dst.Owner(topology.ChannelID(c)), orig.Owner(topology.ChannelID(c)); got != want {
			t.Fatalf("cycle %d: channel %d owner = %d, want %d", cycle, c, got, want)
		}
	}
	if dst.LiveMessages() != orig.LiveMessages() || dst.AllDelivered() != orig.AllDelivered() {
		t.Fatalf("cycle %d: live accounting diverges (live %d vs %d)", cycle, dst.LiveMessages(), orig.LiveMessages())
	}
	for id := 0; id < orig.NumMessages(); id++ {
		if dst.InNetwork(id) != orig.InNetwork(id) || dst.Delivered(id) != orig.Delivered(id) ||
			dst.Frozen(id) != orig.Frozen(id) {
			t.Fatalf("cycle %d: message %d state diverges after decode", cycle, id)
		}
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	for _, sc := range decodeScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			orig := sc.NewSim()
			// Decode into a deliberately dirty instance: stale messages,
			// stale ownership, a stale freeze — everything must be rebuilt.
			dst := sc.NewSim()
			dst.Run(5)
			dst.SetFrozen(0, 9)
			for cycle := 0; cycle < 25; cycle++ {
				decodeCheck(t, cycle, orig, dst)
				orig.Step()
			}
		})
	}
}

// TestDecodeLockstepFuture: for contention-free scenarios (no two
// messages ever race for the same free channel, so Step makes no
// arbitration choices) a decoded state must replay the original's exact
// future cycle by cycle. This is the decode-and-continue property the
// batched frontier path depends on.
func TestDecodeLockstepFuture(t *testing.T) {
	for _, sc := range decodeScenarios()[:2] { // line0, ring4: choice-free
		t.Run(sc.Name, func(t *testing.T) {
			orig := sc.NewSim()
			orig.Step()
			orig.Step()
			var enc []byte
			orig.EncodeTo(&enc)
			dec := sc.NewSim()
			if err := dec.DecodeFrom(enc); err != nil {
				t.Fatal(err)
			}
			var a, b []byte
			for cycle := 0; cycle < 30; cycle++ {
				orig.Step()
				dec.Step()
				a, b = a[:0], b[:0]
				orig.EncodeTo(&a)
				dec.EncodeTo(&b)
				if !bytes.Equal(a, b) {
					t.Fatalf("cycle %d after decode: futures diverge", cycle)
				}
			}
		})
	}
}

// TestDecodeFrozenDelivered: a frozen-but-delivered message stays in the
// decoded active working set, so its freeze countdown keeps running.
func TestDecodeFrozenDelivered(t *testing.T) {
	sc := decodeScenarios()[0]
	orig := sc.NewSim()
	for !orig.Delivered(0) {
		orig.Step()
	}
	orig.SetFrozen(0, 3)
	var enc []byte
	orig.EncodeTo(&enc)
	dec := sc.NewSim()
	if err := dec.DecodeFrom(enc); err != nil {
		t.Fatal(err)
	}
	decodeCheck(t, 0, orig, dec)
	if dec.Frozen(0) != 3 {
		t.Fatalf("freeze countdown = %d, want 3", dec.Frozen(0))
	}
	for i := 0; i < 3; i++ {
		dec.Step()
	}
	if dec.Frozen(0) != 0 {
		t.Fatalf("freeze countdown stuck at %d after 3 steps", dec.Frozen(0))
	}
}

func TestDecodeRejectsCorruptEncodings(t *testing.T) {
	sc := ringScenario4()
	orig := sc.NewSim()
	orig.Step()
	var enc []byte
	orig.EncodeTo(&enc)
	dec := sc.NewSim()
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"empty", nil},
		{"truncated", enc[:len(enc)/2]},
		{"flit-imbalance", func() []byte {
			bad := append([]byte(nil), enc...)
			bad[0] ^= 0x01 // injected count of message 0
			return bad
		}()},
		{"unknown-flag-bit", func() []byte {
			bad := append([]byte(nil), enc...)
			bad[3] |= 0x04 // message 0's flag byte follows its three counters
			return bad
		}()},
		{"trailing-bytes", append(append([]byte(nil), enc...), 1, 0)},
	} {
		if err := dec.DecodeFrom(tc.enc); err == nil {
			t.Errorf("%s: corrupt encoding accepted", tc.name)
		}
	}
}
