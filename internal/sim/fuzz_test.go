package sim_test

import (
	"bytes"
	"testing"

	"repro/internal/papernets"
	"repro/internal/sim"
)

// fuzzScenarios are the scenarios FuzzDecodeFrom decodes into, picked by
// the input's first argument.
var fuzzScenarios = []sim.Scenario{
	papernets.Figure1().Scenario,
	papernets.Figure2().Scenario,
	papernets.GenK(3).Scenario,
}

// FuzzDecodeFrom: frontier batches are read back through DecodeFrom, so
// every input either fails to decode or decodes to a state whose encoding
// decodes again to the same encoding, with every worm's cached head index
// matching its queue after each decode; nothing panics. The seeds are the
// three scenarios' encodings after four steps.
func FuzzDecodeFrom(f *testing.F) {
	for i, sc := range fuzzScenarios {
		s := sc.NewSim()
		for j := 0; j < 4; j++ {
			s.Step()
		}
		var enc []byte
		s.EncodeTo(&enc)
		f.Add(uint8(i), enc)
	}
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		s := fuzzScenarios[int(pick)%len(fuzzScenarios)].NewSim()
		if s.DecodeFrom(data) != nil {
			return
		}
		if err := sim.HeadMismatch(s); err != nil {
			t.Fatalf("after decoding: %v", err)
		}
		var first, second []byte
		s.EncodeTo(&first)
		if err := s.DecodeFrom(first); err != nil {
			t.Fatalf("re-decoding an encoding fails: %v", err)
		}
		if err := sim.HeadMismatch(s); err != nil {
			t.Fatalf("after re-decoding: %v", err)
		}
		s.EncodeTo(&second)
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the encoding:\n%x\n%x", first, second)
		}
	})
}
