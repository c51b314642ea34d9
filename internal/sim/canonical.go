package sim

import (
	"bytes"
	"encoding/binary"

	"repro/internal/topology"
)

// Permutation describes one symmetry of a scenario: a relabeling of its
// messages and channels under which the scenario maps onto itself.
// Searches use a set of Permutations to quotient the visited-state space
// by symmetry: CanonicalEncodeTo picks one representative encoding per
// orbit, so two states that are relabelings of each other deduplicate.
//
// A Permutation is only meaningful for a specific scenario. It must
// satisfy, for every message i with image j = σ(i): the specs agree
// under the channel map (same length, ChanTo-image of i's path equals
// j's path, endpoints mapped accordingly). Callers derive valid
// permutations from topology automorphisms (topology.Automorphisms);
// this package only applies them.
type Permutation struct {
	// MsgAt[j] is the original message whose state occupies message slot
	// j of the permuted encoding — the inverse σ⁻¹ of the message
	// bijection.
	MsgAt []int
	// ChanTo[c] is the channel automorphism image π(c); ChanAt[c] its
	// inverse π⁻¹(c). ChanTo relabels materialized adaptive routes,
	// ChanAt relocates per-channel state (fault outages).
	ChanTo []topology.ChannelID
	ChanAt []topology.ChannelID
}

// CanonicalEncodeTo appends the canonical representative of the state's
// symmetry orbit under perms: the lexicographically least byte string
// among the identity encoding (exactly EncodeTo) and the encoding of the
// state relabeled by each permutation. Two states s, s' with s' = p(s)
// for some p in the closure of perms produce identical canonical
// encodings, so a visited set keyed on them stores one entry per orbit.
//
// dst receives the result (appended, like EncodeTo); scratch is caller
// scratch reused across candidates so the steady state allocates
// nothing. With an empty perms it is exactly EncodeTo.
func (s *Sim) CanonicalEncodeTo(perms []Permutation, dst, scratch *[]byte) {
	base := len(*dst)
	s.EncodeTo(dst)
	for i := range perms {
		*scratch = (*scratch)[:0]
		s.encodePermuted(&perms[i], scratch)
		if bytes.Compare(*scratch, (*dst)[base:]) < 0 {
			*dst = append((*dst)[:base], *scratch...)
		}
	}
}

// encodePermuted appends the EncodeTo-format encoding the state would
// have after relabeling by p: message slot j carries the state of
// original message MsgAt[j], adaptive routes are relabeled through
// ChanTo, and channel fault state is read through ChanAt. Because a
// valid permutation maps message MsgAt[j]'s path onto message j's path
// element-for-element, the positional queued counts carry over
// unchanged; the result is byte-identical to EncodeTo on a Sim built
// from the relabeled scenario in the relabeled state.
func (s *Sim) encodePermuted(p *Permutation, dst *[]byte) {
	b := *dst
	for j := range s.msgs {
		m := &s.msgs[p.MsgAt[j]]
		b = binary.AppendUvarint(b, uint64(m.injected))
		b = binary.AppendUvarint(b, uint64(m.consumed))
		b = binary.AppendUvarint(b, uint64(m.frozen))
		var flags byte
		if m.held {
			flags |= 1
		}
		if m.headerConsumed {
			flags |= 2
		}
		if m.dropped {
			flags |= 4
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(len(m.queued)))
		for _, q := range m.queued {
			b = binary.AppendUvarint(b, uint64(q))
		}
		if m.adaptive() {
			b = binary.AppendUvarint(b, uint64(len(m.path)))
			for _, c := range m.path {
				b = binary.AppendUvarint(b, uint64(p.ChanTo[c]))
			}
		}
	}
	for c := range s.downUntil[:s.downLen()] {
		until := s.downUntil[p.ChanAt[c]]
		if until <= s.now {
			continue
		}
		b = binary.AppendUvarint(b, uint64(c)+1)
		if until == DownForever {
			b = binary.AppendUvarint(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(until-s.now))
		}
	}
	*dst = b
}
