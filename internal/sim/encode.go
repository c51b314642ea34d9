package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/topology"
)

// EncodeTo appends a compact, canonical binary encoding of the mutable
// simulation state to *dst: per-message progress, freeze counter and
// held/headerConsumed flags, buffered flit counts and the materialized
// route of adaptive messages, excluding the cycle counter and statistics.
// When *dst already has capacity it does not allocate. Two states encode
// to identical bytes iff they have identical future behaviour under
// identical choice sequences, provided every message's InjectAt is
// already due (searches arrange this via Held).
//
// The format is length-prefixed uvarints, so equal byte strings imply
// equal states even across different prefix lengths:
//
//	per message (ID order):
//	  uvarint injected, consumed, frozen
//	  1 flag byte (bit0 held, bit1 headerConsumed)
//	  uvarint len(queued), then uvarint per buffered-flit count
//	  adaptive only: uvarint len(path), then uvarint per channel ID
//
// Nothing follows the last message. The message count and each message's
// oblivious path are fixed for the lifetime of a Sim, so they are
// deliberately not encoded; encodings are only comparable between Sims
// instantiated from the same scenario.
//
// Stability contract: this format is a storage format, not just a dedup
// key. The search carries its frontier as batches of these encodings,
// written by mcheck's one entry codec (which also writes the spill runs
// of the visited set), and rebuilds simulators from them with
// DecodeFrom. Changing the field set, the field order, or the varint
// framing therefore breaks every consumer that round-trips states;
// extend only by appending and keep DecodeFrom and that entry codec in
// lockstep. Everything deliberately NOT captured here (wall-clock cycle,
// arbitration waiting times, delivery statistics, per-cycle masks) must
// stay behaviorally irrelevant under StepWithPicks-driven exploration —
// that invariant is what makes decode-and-continue exact.
//
// The format predates the simulator's flat in-memory layout (message
// states, channel owners, flit counts and adaptive routes as pointer-free
// arrays) and did not change with it: only where the encoder reads each
// field moved, so every stored encoding still decodes to the same state.
func (s *Sim) EncodeTo(dst *[]byte) { s.encode(nil, dst, nil) }

// EncodeRangesTo is EncodeTo that also records where each message's bytes
// lie: it appends NumMessages()+1 offsets to starts, counted from where
// the encoding begins, and returns the extended slice, so message id's
// bytes are enc[starts[id]:starts[id+1]] of the appended encoding enc
// when starts came in empty. Each message's bytes frame themselves, so
// any sequence of message ranges, one per message slot, is a well-formed
// encoding; the search assembles successors and canonical keys that way.
func (s *Sim) EncodeRangesTo(dst *[]byte, starts []int32) []int32 {
	s.encode(nil, dst, &starts)
	return starts
}

// encode appends the EncodeTo-format encoding the state would have after
// relabeling by p; a nil p is the identity, which is EncodeTo itself.
// Under p, message slot j carries the state of original message
// p.MsgAt[j] and adaptive routes are relabeled through p.ChanTo. Because
// a valid permutation maps
// message MsgAt[j]'s path onto message j's path element-for-element, the
// positional queued counts carry over unchanged; the result is
// byte-identical to EncodeTo on a Sim built from the relabeled scenario
// in the relabeled state.
//
// It makes one pass over the message states, reading each message's flit
// counts and route from its ranges of flits and hops. Small values,
// nearly all of them, take a one-byte path: a message whose counters all
// fit one byte appends its five header bytes at once, and a run of
// one-byte flit counts is a plain narrowing copy. The buffer grows only
// as append grows it, so a fresh one ends up sized to the encoding. When
// starts is not nil, each message slot's offset from the encoding's start
// is appended to it, and the encoding's length after the last.
func (s *Sim) encode(p *Permutation, dst *[]byte, starts *[]int32) {
	b := *dst
	base := len(b)
	for j := range s.msgs {
		if starts != nil {
			*starts = append(*starts, int32(len(b)-base))
		}
		m := &s.msgs[j]
		if p != nil {
			m = &s.msgs[p.MsgAt[j]]
		}
		var flags byte
		if m.held {
			flags |= 1
		}
		if m.headerConsumed {
			flags |= 2
		}
		if m.injected|m.consumed|m.frozen|m.n < 0x80 {
			// Every field takes one byte: the common case, one append.
			b = append(b, byte(m.injected), byte(m.consumed), byte(m.frozen), flags, byte(m.n))
		} else {
			b = binary.AppendUvarint(b, uint64(m.injected))
			b = binary.AppendUvarint(b, uint64(m.consumed))
			b = binary.AppendUvarint(b, uint64(m.frozen))
			b = append(b, flags)
			b = binary.AppendUvarint(b, uint64(m.n))
		}
		b = appendCounts(b, s.flits[m.off:m.off+m.n])
		if m.adaptive {
			// The materialized route is part of an adaptive message's
			// state; an oblivious path is immutable and omitted.
			b = binary.AppendUvarint(b, uint64(m.n))
			for _, c := range s.hops[m.hop : m.hop+m.n] {
				if p != nil {
					c = p.ChanTo[c]
				}
				b = binary.AppendUvarint(b, uint64(c))
			}
		}
	}
	if starts != nil {
		*starts = append(*starts, int32(len(b)-base))
	}
	*dst = b
}

// appendCounts appends each flit count as a uvarint. When every count
// fits in one byte, as nearly all do, that is a plain narrowing copy.
func appendCounts(b []byte, qs []int32) []byte {
	n := len(b)
	b = slices.Grow(b, len(qs))[:n+len(qs)]
	out := b[n:]
	var or int32
	for i, q := range qs {
		out[i] = byte(q)
		or |= q
	}
	if or < 0x80 {
		return b
	}
	b = b[:n]
	for _, q := range qs {
		b = binary.AppendUvarint(b, uint64(q))
	}
	return b
}

// decoder reads EncodeTo's uvarints. The first failure is kept in err,
// and every read after it returns 0 without moving, so a caller checks
// err once per group of reads.
type decoder struct {
	enc []byte
	pos int
	err error
}

// uvarint returns the next uvarint, taking a one-byte value without
// calling the general decoder. Values above math.MaxInt32 are rejected:
// no count, channel ID or flit index comes near that, and a larger value
// would turn negative as an int and pass the range checks.
func (d *decoder) uvarint() int {
	if d.err != nil {
		return 0
	}
	if p := d.pos; p < len(d.enc) && d.enc[p] < 0x80 {
		d.pos = p + 1
		return int(d.enc[p])
	}
	v, n := binary.Uvarint(d.enc[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("sim: DecodeFrom: truncated varint at offset %d", d.pos)
		return 0
	}
	if v > math.MaxInt32 {
		d.err = fmt.Errorf("sim: DecodeFrom: varint %d at offset %d out of range", v, d.pos)
		return 0
	}
	d.pos += n
	return int(v)
}

// counts reads len(q) flit counts into q and returns their sum. When the
// next len(q) bytes are all one-byte uvarints, as they nearly always
// are, that is a plain widening copy.
func (d *decoder) counts(q []int32) (int, error) {
	sum := 0
	if end := d.pos + len(q); end <= len(d.enc) {
		var or byte
		for j, v := range d.enc[d.pos:end] {
			q[j] = int32(v)
			or |= v
			sum += int(v)
		}
		if or < 0x80 {
			d.pos = end
			return sum, nil
		}
		sum = 0
	}
	for j := range q {
		v := d.uvarint()
		q[j] = int32(v)
		sum += v
	}
	return sum, d.err
}

// DecodeFrom overwrites s's mutable state with the state enc describes,
// inverting EncodeTo. s must carry the same message set the encoding was
// produced from (same scenario, same Add order) — the encoding holds no
// specs, so only per-message progress is restored. All derived state is
// reconstructed: channel ownership from each worm's flit occupancy and
// release rule, the active working set and the live counter. Quantities the
// encoding deliberately omits are reset to neutral values (waiting times
// cleared, masks to None, statistics zeroed); they never influence
// behaviour under explicit-pick stepping, which is what makes a decoded
// state an exact substitute for the one that was encoded: stepping both
// with identical choice sequences yields identical encodings forever.
//
// The search uses this to carry frontiers as compact byte batches
// instead of live simulators, and to read them back from disk, so it
// rejects any input EncodeTo cannot produce for this message set rather
// than ignoring it: unknown flag bits, an adaptive route longer than the
// network has channels and bytes after the last message are errors. It
// writes each message's flit counts and route straight into the
// message's ranges, in one pass over the encoding.
func (s *Sim) DecodeFrom(enc []byte) error {
	d := decoder{enc: enc}
	s.now = 0
	clear(s.owner)
	s.lastMoved = false
	s.lastThawed = false
	s.active = s.active[:0]
	s.liveCount = 0
	s.planned = false
	s.predicted = false
	var consumedTotal int64
	channels := s.net.NumChannels()

	for i := range s.msgs {
		m := &s.msgs[i]
		injected := d.uvarint()
		consumed := d.uvarint()
		frozen := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if d.pos >= len(enc) {
			return fmt.Errorf("sim: DecodeFrom: truncated flags for message %d", i)
		}
		flags := enc[d.pos]
		if flags&^3 != 0 {
			return fmt.Errorf("sim: DecodeFrom: message %d has unknown flag bits %#x", i, flags&^3)
		}
		d.pos++
		nq := d.uvarint()
		if d.err != nil {
			return d.err
		}
		if m.adaptive {
			if nq > channels {
				return fmt.Errorf("sim: DecodeFrom: adaptive message %d has %d queue slots, the network %d channels", i, nq, channels)
			}
			if nq > m.room {
				s.widen(m, nq)
			}
			m.n = nq
		} else if nq != m.n {
			return fmt.Errorf("sim: DecodeFrom: message %d has %d queue slots, encoding has %d", i, m.n, nq)
		}
		q := s.flits[m.off : m.off+nq]
		flits, err := d.counts(q)
		if err != nil {
			return err
		}
		m.head = s.scanHead(m)
		if m.adaptive {
			np := d.uvarint()
			if d.err != nil {
				return d.err
			}
			if np != nq {
				return fmt.Errorf("sim: DecodeFrom: adaptive message %d path length %d != queue length %d", i, np, nq)
			}
			hops := s.hops[m.hop : m.hop+np]
			for j := range hops {
				c := d.uvarint()
				if d.err != nil {
					return d.err
				}
				if c >= channels {
					return fmt.Errorf("sim: DecodeFrom: adaptive message %d path channel %d out of range", i, c)
				}
				hops[j] = topology.ChannelID(c)
			}
		}
		m.injected = injected
		m.consumed = consumed
		m.frozen = frozen
		m.held = flags&1 != 0
		m.headerConsumed = flags&2 != 0
		m.mask = topology.None
		m.waitingSince = -1
		m.injectedAt = -1
		if m.injected > 0 {
			m.injectedAt = 0
		}
		m.deliveredAt = -1
		if m.delivered() {
			m.deliveredAt = 0
		}
		if flits != m.injected-m.consumed {
			return fmt.Errorf("sim: DecodeFrom: message %d buffers %d flits, injected-consumed is %d",
				i, flits, m.injected-m.consumed)
		}
		if !m.delivered() {
			s.liveCount++
		}
		if !m.delivered() || m.frozen > 0 {
			s.active = append(s.active, int32(i)) // message IDs ascend, so active stays sorted
		}
		consumedTotal += int64(consumed)

		// Channel ownership: the worm holds every channel its header has
		// entered (all of them once the header reached the sink) except
		// those its tail has fully departed — queue empty with no flit, at
		// the source or in an earlier channel, still behind (the release
		// rule in moveMessage/noTailBehind).
		if m.injected == 0 {
			continue
		}
		path := s.path(m)
		hi := len(path) - 1
		if !m.headerConsumed {
			hi = m.head
		}
		behind := m.injected < m.length
		for j := 0; j <= hi; j++ {
			if q[j] != 0 || behind {
				s.take(m, path[j])
			}
			if q[j] != 0 {
				behind = true
			}
		}
	}
	s.flitsConsumed = consumedTotal

	if d.pos != len(enc) {
		return fmt.Errorf("sim: DecodeFrom: %d trailing bytes after the last message", len(enc)-d.pos)
	}
	return nil
}
