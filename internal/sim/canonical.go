package sim

import (
	"bytes"

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
	// ChanTo[c] is the channel automorphism image π(c); it relabels
	// materialized adaptive routes.
	ChanTo []topology.ChannelID
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
		s.encode(&perms[i], scratch)
		if bytes.Compare(*scratch, (*dst)[base:]) < 0 {
			*dst = append((*dst)[:base], *scratch...)
		}
	}
}
