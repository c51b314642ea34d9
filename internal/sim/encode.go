package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/topology"
)

// EncodeTo appends a compact, canonical binary encoding of the mutable
// simulation state to *dst: per-message progress, freeze/held/drop flags,
// buffered flit counts, the materialized route of adaptive messages, and
// time-relative channel fault state, excluding the cycle counter and
// statistics. When *dst already has capacity it does not allocate. Two
// states encode to identical bytes iff they have identical future
// behaviour under identical choice sequences, provided every message's
// InjectAt is already due (searches arrange this via Held).
//
// The format is length-prefixed uvarints, so equal byte strings imply
// equal states even across different prefix lengths:
//
//	per message (ID order):
//	  uvarint injected, consumed, frozen
//	  1 flag byte (bit0 held, bit1 headerConsumed, bit2 dropped)
//	  uvarint len(queued), then uvarint per buffered-flit count
//	  adaptive only: uvarint len(path), then uvarint per channel ID
//	then, for each currently-down channel in ascending ID order:
//	  uvarint channelID+1, uvarint remaining outage (0 = permanent)
//
// The message count and each message's oblivious path are fixed for the
// lifetime of a Sim, so they are deliberately not encoded; encodings are
// only comparable between Sims instantiated from the same scenario.
//
// Stability contract: this format is a storage format, not just a dedup
// key. The search carries its frontier as batches of these encodings,
// written by mcheck's one entry codec (which also writes the spill runs
// of the visited set), and rebuilds simulators from them with
// DecodeFrom. Changing the field set, the field order, or the varint
// framing therefore breaks every consumer that round-trips states;
// extend only by appending and keep DecodeFrom and that entry codec in
// lockstep. Everything deliberately NOT captured here (wall-clock cycle,
// arbitration waiting times, delivery statistics, retry counters,
// per-cycle masks) must stay behaviorally irrelevant under
// StepWithPicks-driven exploration — that invariant is what makes
// decode-and-continue exact.
func (s *Sim) EncodeTo(dst *[]byte) { s.encode(nil, dst) }

// encode appends the EncodeTo-format encoding the state would have after
// relabeling by p; a nil p is the identity, which is EncodeTo itself.
// Under p, message slot j carries the state of original message
// p.MsgAt[j], adaptive routes are relabeled through p.ChanTo, and channel
// fault state is read through p.ChanAt. Because a valid permutation maps
// message MsgAt[j]'s path onto message j's path element-for-element, the
// positional queued counts carry over unchanged; the result is
// byte-identical to EncodeTo on a Sim built from the relabeled scenario
// in the relabeled state.
func (s *Sim) encode(p *Permutation, dst *[]byte) {
	b := *dst
	for j := range s.msgs {
		m := &s.msgs[j]
		if p != nil {
			m = &s.msgs[p.MsgAt[j]]
		}
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
			// The materialized route is part of an adaptive message's
			// state; an oblivious path is immutable and omitted.
			b = binary.AppendUvarint(b, uint64(len(m.path)))
			for _, c := range m.path {
				if p != nil {
					c = p.ChanTo[c]
				}
				b = binary.AppendUvarint(b, uint64(c))
			}
		}
	}
	// Channel fault state, time-relative (remaining outage) so two states
	// that behave identically going forward encode identically regardless
	// of absolute cycle. Down channels are rare; most states append
	// nothing here.
	for c := range s.downUntil[:s.downLen()] {
		until := s.downUntil[c]
		if p != nil {
			until = s.downUntil[p.ChanAt[c]]
		}
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

// DecodeFrom overwrites s's mutable state with the state enc describes,
// inverting EncodeTo. s must carry the same message set the encoding was
// produced from (same scenario, same Add order) — the encoding holds no
// specs, so only per-message progress is restored. All derived state is
// reconstructed: channel ownership from each worm's flit occupancy and
// release rule, the active working set, live/dropped counters, and
// time-relative channel outages re-anchored at cycle zero. Quantities the
// encoding deliberately omits are reset to neutral values (waiting times
// cleared, masks to None, statistics zeroed); they never influence
// behaviour under explicit-pick stepping, which is what makes a decoded
// state an exact substitute for the one that was encoded: stepping both
// with identical choice sequences yields identical encodings forever.
//
// The search uses this to carry frontiers as compact byte batches
// instead of live simulators.
func (s *Sim) DecodeFrom(enc []byte) error {
	pos := 0
	next := func() (int, error) {
		v, n := binary.Uvarint(enc[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("sim: DecodeFrom: truncated varint at offset %d", pos)
		}
		if v > math.MaxInt32 {
			// No count, channel ID or flit index comes near this; a larger
			// value would turn negative as an int and pass the range checks.
			return 0, fmt.Errorf("sim: DecodeFrom: varint %d at offset %d out of range", v, pos)
		}
		pos += n
		return int(v), nil
	}

	s.now = 0
	for i := range s.owner {
		s.owner[i] = -1
	}
	clear(s.downUntil)
	s.downMax = 0
	for len(s.waitingSince) < len(s.msgs) {
		s.waitingSince = append(s.waitingSince, -1)
	}
	for i := range s.waitingSince {
		s.waitingSince[i] = -1
	}
	s.lastMoved = false
	s.lastThawed = false
	s.active = s.active[:0]
	s.liveCount = 0
	s.droppedCount = 0
	s.planned = false
	var consumedTotal int64

	for i := range s.msgs {
		m := &s.msgs[i]
		injected, err := next()
		if err != nil {
			return err
		}
		consumed, err := next()
		if err != nil {
			return err
		}
		frozen, err := next()
		if err != nil {
			return err
		}
		if pos >= len(enc) {
			return fmt.Errorf("sim: DecodeFrom: truncated flags for message %d", i)
		}
		flags := enc[pos]
		pos++
		nq, err := next()
		if err != nil {
			return err
		}
		if !m.adaptive() && nq != len(m.path) {
			return fmt.Errorf("sim: DecodeFrom: message %d has %d queue slots, encoding has %d", i, len(m.path), nq)
		}
		m.queued = m.queued[:0]
		flits := 0
		for j := 0; j < nq; j++ {
			q, err := next()
			if err != nil {
				return err
			}
			m.queued = append(m.queued, q)
			flits += q
		}
		m.head = m.scanHead()
		if m.adaptive() {
			np, err := next()
			if err != nil {
				return err
			}
			if np != nq {
				return fmt.Errorf("sim: DecodeFrom: adaptive message %d path length %d != queue length %d", i, np, nq)
			}
			m.path = m.path[:0]
			for j := 0; j < np; j++ {
				c, err := next()
				if err != nil {
					return err
				}
				if c >= s.net.NumChannels() {
					return fmt.Errorf("sim: DecodeFrom: adaptive message %d path channel %d out of range", i, c)
				}
				m.path = append(m.path, topology.ChannelID(c))
			}
		}
		m.injected = injected
		m.consumed = consumed
		m.frozen = frozen
		m.held = flags&1 != 0
		m.headerConsumed = flags&2 != 0
		m.dropped = flags&4 != 0
		m.mask = topology.None
		m.retries = 0
		m.injectedAt = -1
		if m.injected > 0 {
			m.injectedAt = 0
		}
		m.deliveredAt = -1
		if m.delivered() {
			m.deliveredAt = 0
		}
		if !m.dropped && flits != m.injected-m.consumed {
			return fmt.Errorf("sim: DecodeFrom: message %d buffers %d flits, injected-consumed is %d",
				i, flits, m.injected-m.consumed)
		}
		if m.dropped {
			s.droppedCount++
		}
		if !m.terminal() {
			s.liveCount++
		}
		if !m.terminal() || m.frozen > 0 {
			s.active = append(s.active, int32(i)) // message IDs ascend, so active stays sorted
		}
		consumedTotal += int64(consumed)

		// Channel ownership: the worm holds every channel its header has
		// entered (all of them once the header reached the sink) except
		// those its tail has fully departed — queue empty with no flit, at
		// the source or in an earlier channel, still behind (the release
		// rule in moveMessage/noTailBehind).
		if m.dropped || m.injected == 0 {
			continue
		}
		hi := len(m.path) - 1
		if !m.headerConsumed {
			hi = m.head
		}
		behind := m.injected < m.length
		for j := 0; j <= hi; j++ {
			if m.queued[j] != 0 || behind {
				s.owner[m.path[j]] = m.id
			}
			if m.queued[j] != 0 {
				behind = true
			}
		}
	}
	s.flitsConsumed = consumedTotal

	for pos < len(enc) {
		c, err := next()
		if err != nil {
			return err
		}
		if c == 0 || c > s.net.NumChannels() {
			return fmt.Errorf("sim: DecodeFrom: down-channel id %d out of range", c-1)
		}
		rem, err := next()
		if err != nil {
			return err
		}
		if rem == 0 {
			rem = DownForever
		}
		s.downUntil[c-1] = rem
		s.downMax = max(s.downMax, rem)
	}
	return nil
}
