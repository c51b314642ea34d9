package sim

import (
	"bytes"
	"testing"

	"repro/internal/topology"
)

// canonicalFixture builds a 4-node directed ring with two messages on
// opposite halves — M0: n0 -> n2 over [c0, c1], M1: n2 -> n0 over
// [c2, c3] — and the rotate-by-two permutation that swaps them. The
// scenario maps onto itself under the rotation, so states that differ
// only by the swap must share a canonical encoding.
func canonicalFixture() (*topology.Network, []MessageSpec, Permutation) {
	net := topology.NewRing(4, false)
	msgs := []MessageSpec{
		{Src: 0, Dst: 2, Length: 2, Path: []topology.ChannelID{0, 1}},
		{Src: 2, Dst: 0, Length: 2, Path: []topology.ChannelID{2, 3}},
	}
	rot := Permutation{
		MsgAt:  []int{1, 0},
		ChanTo: []topology.ChannelID{2, 3, 0, 1},
	}
	return net, msgs, rot
}

func newCanonicalSim(t *testing.T, advance int) *Sim {
	t.Helper()
	net, msgs, _ := canonicalFixture()
	s := New(net, Config{})
	for _, m := range msgs {
		s.MustAdd(m)
	}
	// Hold everyone, then let only message `advance` run for two cycles,
	// producing a state asymmetric between the two ring halves.
	for id := 0; id < s.NumMessages(); id++ {
		s.SetHeld(id, true)
	}
	s.SetHeld(advance, false)
	s.Step()
	s.Step()
	return s
}

// TestCanonicalEncodeEmptyPermsIsEncodeTo: with no permutations the
// canonical encoding is byte-identical to EncodeTo.
func TestCanonicalEncodeEmptyPermsIsEncodeTo(t *testing.T) {
	s := newCanonicalSim(t, 0)
	var plain, canon, scratch []byte
	s.EncodeTo(&plain)
	s.CanonicalEncodeTo(nil, &canon, &scratch)
	if !bytes.Equal(plain, canon) {
		t.Fatalf("canonical %x != plain %x with no permutations", canon, plain)
	}
}

// TestCanonicalEncodeQuotientsSymmetricStates: the state where M0 made
// progress and the state where M1 made the same progress encode
// differently under EncodeTo but identically under the rotation's
// canonical encoding — the core contract of symmetry reduction.
func TestCanonicalEncodeQuotientsSymmetricStates(t *testing.T) {
	_, _, rot := canonicalFixture()
	perms := []Permutation{rot}
	a := newCanonicalSim(t, 0)
	b := newCanonicalSim(t, 1)

	var encA, encB []byte
	a.EncodeTo(&encA)
	b.EncodeTo(&encB)
	if bytes.Equal(encA, encB) {
		t.Fatal("fixture broken: the two mirror states encode identically before reduction")
	}

	var canA, canB, scratch []byte
	a.CanonicalEncodeTo(perms, &canA, &scratch)
	canB = canB[:0]
	b.CanonicalEncodeTo(perms, &canB, &scratch)
	if !bytes.Equal(canA, canB) {
		t.Fatalf("mirror states canonicalize differently:\n a: %x\n b: %x", canA, canB)
	}
	// The representative is the lexicographic minimum of the two plain
	// encodings.
	want := encA
	if bytes.Compare(encB, want) < 0 {
		want = encB
	}
	if !bytes.Equal(canA, want) {
		t.Fatalf("canonical %x is not the orbit minimum %x", canA, want)
	}
}

// TestCanonicalEncodeIdentityPermIsNoOp: an explicit identity
// permutation never changes the representative.
func TestCanonicalEncodeIdentityPermIsNoOp(t *testing.T) {
	s := newCanonicalSim(t, 1)
	id := Permutation{
		MsgAt:  []int{0, 1},
		ChanTo: []topology.ChannelID{0, 1, 2, 3},
	}
	var plain, canon, scratch []byte
	s.EncodeTo(&plain)
	s.CanonicalEncodeTo([]Permutation{id}, &canon, &scratch)
	if !bytes.Equal(plain, canon) {
		t.Fatalf("identity permutation changed the encoding: %x != %x", canon, plain)
	}
}

// TestLeastPermutationMatchesCanonicalEncode: the key built from message
// ranges — EncodeRangesTo, LeastPermutation and AppendPermuted — is
// CanonicalEncodeTo's, on both mirror states and with the identity among
// the candidates, and EncodeRangesTo appends EncodeTo's bytes with
// offsets counted from where the encoding begins.
func TestLeastPermutationMatchesCanonicalEncode(t *testing.T) {
	_, _, rot := canonicalFixture()
	id := Permutation{MsgAt: []int{0, 1}, ChanTo: []topology.ChannelID{0, 1, 2, 3}}
	for _, advance := range []int{0, 1} {
		s := newCanonicalSim(t, advance)
		var plain []byte
		s.EncodeTo(&plain)
		enc := []byte("prefix")
		starts := s.EncodeRangesTo(&enc, nil)
		enc = enc[len("prefix"):]
		if !bytes.Equal(enc, plain) {
			t.Fatalf("EncodeRangesTo %x, EncodeTo %x", enc, plain)
		}
		if len(starts) != s.NumMessages()+1 || starts[0] != 0 || int(starts[len(starts)-1]) != len(enc) {
			t.Fatalf("starts %v for a %d-byte encoding of %d messages", starts, len(enc), s.NumMessages())
		}
		for _, perms := range [][]Permutation{{rot}, {id, rot}, {rot, id}} {
			var want, scratch []byte
			s.CanonicalEncodeTo(perms, &want, &scratch)
			got := enc
			if i := LeastPermutation(perms, enc, starts); i >= 0 {
				got = AppendPermuted(nil, enc, starts, &perms[i])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("advance %d, %d perms: key %x, CanonicalEncodeTo %x", advance, len(perms), got, want)
			}
		}
	}
}
