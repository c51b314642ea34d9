package sim

import "bytes"

// Permutation describes one symmetry of a scenario: a relabeling of its
// messages and channels under which the scenario maps onto itself.
// Searches use a set of Permutations to quotient the visited-state space
// by symmetry: CanonicalEncodeTo picks one representative encoding per
// orbit, so two states that are relabelings of each other deduplicate.
//
// A Permutation is only meaningful for a specific scenario whose
// messages are all oblivious. It must satisfy, for every message i with
// image j = σ(i): the specs agree under a channel automorphism π (same
// length, the π-image of i's path equals j's path, endpoints mapped
// accordingly). Channel IDs then appear in no encoded state, so
// relabeling a state only moves message states between slots. Callers
// derive valid permutations from topology automorphisms
// (topology.Automorphisms) and use none for a scenario with an adaptive
// message, whose materialized route the relabeling would miss; this
// package only applies them.
type Permutation struct {
	// MsgAt[j] is the original message whose state occupies message slot
	// j of the permuted encoding — the inverse σ⁻¹ of the message
	// bijection.
	MsgAt []int
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
		s.encode(&perms[i], scratch, nil)
		if bytes.Compare(*scratch, (*dst)[base:]) < 0 {
			*dst = append((*dst)[:base], *scratch...)
		}
	}
}

// LeastPermutation returns the index in perms of the permutation whose
// relabeling of an encoded state is the least byte string, or -1 when
// no relabeling is less than the identity encoding: the candidate
// CanonicalEncodeTo keeps. enc is the state's EncodeTo encoding and
// starts its message offsets from EncodeRangesTo. A relabeling moves
// whole message encodings between slots (see Permutation). Each
// candidate is compared against the least so far range by range and
// abandoned at its first differing byte.
func LeastPermutation(perms []Permutation, enc []byte, starts []int32) int {
	best := -1
	var at []int // the least candidate's message order, nil for the identity
	for i := range perms {
		if permutedLess(enc, starts, perms[i].MsgAt, at) {
			best, at = i, perms[i].MsgAt
		}
	}
	return best
}

// permutedLess reports whether the encoding whose slot j holds message
// p[j] is less than the one whose slot j holds message at[j] (the
// identity when at is nil). Both are concatenations of the same message
// ranges, so they have one length; they are walked together, a common
// run of bytes at a time.
func permutedLess(enc []byte, starts []int32, p, at []int) bool {
	n := len(starts) - 1
	var a, b []byte // the unread rest of the current slot of each side
	for ja, jb := 0, 0; ; {
		if len(a) == 0 {
			if ja == n {
				return false // equal
			}
			m := p[ja]
			a, ja = enc[starts[m]:starts[m+1]], ja+1
			continue
		}
		if len(b) == 0 {
			m := jb
			if at != nil {
				m = at[jb]
			}
			b, jb = enc[starts[m]:starts[m+1]], jb+1
			continue
		}
		k := min(len(a), len(b))
		if c := bytes.Compare(a[:k], b[:k]); c != 0 {
			return c < 0
		}
		a, b = a[k:], b[k:]
	}
}

// AppendPermuted appends the encoding of the state enc encodes relabeled
// by p: slot j carries message p.MsgAt[j]'s range.
func AppendPermuted(dst, enc []byte, starts []int32, p *Permutation) []byte {
	for _, m := range p.MsgAt {
		dst = append(dst, enc[starts[m]:starts[m+1]]...)
	}
	return dst
}
