// Package sim is a cycle-accurate, flit-level wormhole switching simulator.
//
// It implements the operational model of Dally & Seitz (1987) under the
// exact assumptions Schwiebert (SPAA '97) lists in Section 3:
//
//  1. Nodes generate messages of arbitrary length at any rate (sources may
//     hold a ready message indefinitely before injecting).
//  2. A message arriving at its destination is always consumed, one flit
//     per cycle.
//  3. Once a channel queue accepts a header flit it accepts only that
//     message's flits until the message is through.
//  4. Atomic buffer allocation: a channel queue holds flits of at most one
//     message, and a new header is accepted only strictly after the
//     previous message's last flit has left the queue.
//  5. Simultaneous requests for one output channel are arbitrated;
//     messages already waiting are served starvation-free.
//
// Time advances in synchronous network cycles; each channel forwards at
// most one flit per cycle, and a worm's flits pipeline (a flit moves into
// the buffer slot its predecessor vacates in the same cycle). Assumption 4
// admits two readings, both implemented: by default a released channel is
// acquirable the cycle after the tail departs; with
// Config.SameCycleHandoff it is acquirable the departing cycle itself —
// the reading the paper's Theorem 4 proof uses.
//
// Messages route either obliviously (a fixed channel path) or adaptively
// (a per-hop candidate function, MessageSpec.Route); adaptive paths
// materialize as the header advances.
//
// The simulator supports the paper's Section 6 fault model, its only fault
// model, via per-message freeze counters: a frozen message does not move
// even when its output channel is free (SetFrozen). It exposes
// CopyFrom/Clone, EncodeTo/DecodeFrom, explicit arbitration picks and
// adaptive selection masks so the mcheck package can use it as the
// transition function of an exact state-space search.
package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obsv"
	"repro/internal/obsv/telemetry"
	"repro/internal/topology"
)

// RouteFunc supplies the candidate output channels for an adaptive
// message at node at (arrived on channel in, topology.None at the source)
// heading for dst. The engine acquires whichever candidate arbitration
// grants; candidates that do not leave at, or that the message has already
// used, are ignored. Returning no usable candidate when the message has
// not arrived blocks it forever — routing functions must be connected.
type RouteFunc func(at topology.NodeID, in topology.ChannelID, dst topology.NodeID) []topology.ChannelID

// MessageSpec describes a message to simulate. Exactly one of Path
// (oblivious routing: the fixed channel sequence, from
// routing.Algorithm.Path) and Route (adaptive routing: per-hop candidate
// sets) must be set.
type MessageSpec struct {
	Src, Dst topology.NodeID
	Length   int // flits, >= 1
	Path     []topology.ChannelID
	Route    RouteFunc
	InjectAt int    // earliest cycle the source tries to inject (>= 0)
	Label    string // optional, for diagnostics
}

// msgState is the runtime state of one message. It holds no pointers:
// the message's immutable description is Sim.specs[id], its buffered
// flits are its slots of Sim.flits, and an adaptive message's
// materialized route is its slots of Sim.hops. So every message's state
// sits in one pointer-free array, and copying a simulator copies it in
// one block. The two flags sit together at the end with the adaptive
// bit, so they share one word of padding.
type msgState struct {
	id       int
	injectAt int // earliest injection cycle
	length   int // flits
	injected int // flits that have left the source
	consumed int // flits consumed at the destination
	// head is the largest path index holding flits, -1 when none does.
	// A flit entering a higher slot (injection, acquisition, a forward
	// move) raises it; only consumption emptying the sink slot rescans.
	head   int
	frozen int // cycles the message will not move (Section 6 faults)
	// mask, when not topology.None, restricts an adaptive message's
	// candidate set to that single channel for the current cycle (cleared
	// after each Step); used by search to enumerate selection choices.
	mask topology.ChannelID

	injectedAt  int // cycle the header entered the network, -1 before
	deliveredAt int // cycle the tail was consumed, -1 before
	// waitingSince is the cycle the message's header began waiting for
	// its next channel, -1 when not waiting; drives FIFO arbitration.
	waitingSince int

	// off is the first of the message's slots in Sim.flits and hop (for
	// adaptive messages) the first of its slots in Sim.hops; room is how
	// many slots each range holds and n how many are in use, the length
	// of the materialized path. An oblivious message's n and room are its
	// path length from Add on; an adaptive one starts at n = 0 and moves
	// to wider ranges as its path outgrows them (widen).
	off, hop, n, room int

	adaptive       bool
	headerConsumed bool
	held           bool // source withholds injection (assumption 1)
}

func (m *msgState) delivered() bool { return m.consumed == m.length }

func (m *msgState) inNetwork() bool { return m.injected > m.consumed }

// queue returns message m's buffered-flit counts, one per slot of its
// materialized path: a window of s.flits, valid until the message's path
// grows.
func (s *Sim) queue(m *msgState) []int32 { return s.flits[m.off : m.off+m.n] }

// path returns message m's materialized channel sequence: the shared
// spec's fixed path for an oblivious message, its slots of s.hops for an
// adaptive one.
func (s *Sim) path(m *msgState) []topology.ChannelID {
	if m.adaptive {
		return s.hops[m.hop : m.hop+m.n]
	}
	return s.specs[m.id].Path
}

// scanHead returns the largest path index of m holding flits, or -1: the
// value the head field caches.
func (s *Sim) scanHead(m *msgState) int {
	q := s.queue(m)
	for i := len(q) - 1; i >= 0; i-- {
		if q[i] > 0 {
			return i
		}
	}
	return -1
}

// Config controls simulator behaviour.
type Config struct {
	// BufferDepth is the flit capacity of every channel queue. The paper's
	// hardest case — and the default — is 1.
	BufferDepth int
	// Arbiter resolves simultaneous requests for a free channel. Defaults
	// to FIFO (longest-waiting wins, ties to lowest message ID), which is
	// starvation-free per assumption 5. Its Pick must not modify it (see
	// Arbiter). The search engines in internal/mcheck never consult it:
	// they enumerate every arbitration outcome as picks.
	Arbiter Arbiter
	// SameCycleHandoff selects the aggressive reading of assumption 4:
	// when a message's tail leaves a channel this cycle, a waiting header
	// may acquire the channel in the same cycle (the handoff the paper's
	// Theorem 4 proof uses — "immediately after M1 has traversed cs, M2
	// starts traversing cs"). When false (default), a released channel
	// becomes acquirable only on the following cycle. Same-cycle handoff
	// chains are resolved to depth one: a header may enter a channel freed
	// by a message that is not itself acquiring a freed channel this
	// cycle.
	SameCycleHandoff bool
}

// Sim is a simulator instance. Create one with New, add messages, then
// Step or Run.
type Sim struct {
	net *topology.Network
	cfg Config
	now int

	// The mutable search state is five pointer-free arrays, so CopyFrom
	// is one copy per array and EncodeTo/DecodeFrom one pass over them.
	//
	// specs[id] is message id's immutable description. Clones share the
	// array, so no slot is ever written twice (see addSpec), and CopyFrom
	// between simulators of one scenario stores nothing for it.
	specs []MessageSpec
	msgs  []msgState // indexed by message ID; stable addresses only between Adds
	// owner[c] is the ID of the message holding channel c plus one, 0
	// when c is free, so clearing the array frees every channel; read it
	// through holder and holds.
	owner []int32
	// flits holds every message's buffered-flit counts, hops every
	// adaptive message's materialized route, each message in the range
	// its msgState names.
	flits []int32
	hops  []topology.ChannelID
	// spareFlits and spareHops are the arrays Compact moves flits and
	// hops into next: each call swaps them with the live ones, so a
	// simulator that compacts regularly reuses two pairs of arrays.
	// Neither is copied or encoded.
	spareFlits []int32
	spareHops  []topology.ChannelID

	// active is the working set the per-cycle machinery iterates: every
	// undelivered message, plus delivered messages whose freeze counter is
	// still counting down (frozen state is encoded, so the countdown must
	// keep running exactly as it did when every cycle visited every
	// message). Sorted ascending; step compacts out finished entries.
	// Every consumer re-checks message state, so an entry delivered
	// within the current step is harmless until the next compaction.
	active []int32
	// liveCount counts undelivered messages, so AllDelivered is O(1) on
	// the Run hot loop.
	liveCount int
	// flitsConsumed counts every flit consumed at a destination since New
	// or Reset, so the traffic engine can read window deltas for accepted
	// throughput.
	flitsConsumed int64

	// perCycleMoved reports whether the last Step moved any flit.
	lastMoved bool
	// lastThawed reports whether the last Step decremented any freeze
	// counter. A countdown is a state change even when no flit moves: the
	// cycle a freeze expires must not satisfy the quiescence certificate,
	// or a frozen-but-otherwise-idle network would be misreported as
	// deadlocked one cycle early.
	lastThawed bool

	// --- per-step scratch arenas -------------------------------------
	// Transient working memory for one Step (or one query), owned by the
	// Sim so steady-state stepping allocates nothing. Arenas are never
	// copied by Clone/CopyFrom and never shrunk; epoch-stamp arrays treat
	// "stamp == current epoch counter" as set, so clearing one is a
	// single counter increment. The counters are bumped before every use
	// and never reset (not even by Reset), so stale stamps — including
	// the zero value of freshly grown slots — always read as unset.

	// releaseEpoch/freeingStamp mark the channels predicted to release
	// this cycle (same-cycle handoff); refreshed by each predictReleases
	// pass.
	releaseEpoch uint64
	freeingStamp []uint64
	// grantEpoch/grantStamp/grantCh record phase-2 arbitration grants,
	// message id -> channel won; refreshed once per step.
	grantEpoch uint64
	grantStamp []uint64
	grantCh    []topology.ChannelID
	// stepReqs holds the step's acquisition requests as packed
	// (channel<<32 | message) pairs; sorting them yields channels in
	// ascending order with each channel's contenders ascending, replacing
	// the per-cycle request map and both its sorts. queryReqs is the same
	// arena for the Contentions query, kept separate so an arbiter that
	// inspects contentions mid-step cannot clobber the grant loop's
	// iteration.
	stepReqs  []uint64
	queryReqs []uint64
	// wanting[id] records whether active message id wanted a channel,
	// acquirable or not, when collectRequests last ran, so the waiting
	// bookkeeping of advance reads the plan instead of asking
	// wantedChannels a second time. Only active messages' bits are kept.
	wanting []bool
	// planned reports that queryReqs and the release marks still describe
	// the current state: Contentions sets it, and every state change
	// (stepping, copying, decoding, the setters) clears it. StepFrom
	// refuses a probe without one.
	planned bool
	// predicted reports that the release marks describe the current
	// state, so predictReleases has nothing to do: it sets the flag, and
	// every change the marks depend on (stepping, copying, decoding, Add,
	// SetMask) clears it. Held bits do not matter to them (only fully
	// injected messages release), and neither do freezes (freeing rules
	// out a frozen holder), so one prediction serves every activation and
	// freeze subset of a search state.
	predicted bool
	// contOut and contIDs back the Contentions result and its contender
	// lists; valid until the next Contentions call.
	contOut []Contention
	contIDs []int
	// wantBuf backs adaptiveCandidates; valid only until the next
	// wantedChannels/adaptiveCandidates call.
	wantBuf []topology.ChannelID
	// departsBuf backs the predictReleases front-to-back worm walk.
	departsBuf []bool
	// releases collects strict-mode end-of-cycle channel releases.
	releases []topology.ChannelID
	// deferredBuf collects the messages whose movement waits for a
	// same-cycle handoff release.
	deferredBuf []int32
	// contBuf is the grant loop's per-channel contender list.
	contBuf []int
	// pathSeenEpoch/pathSeenStamp back the duplicate-channel check in
	// Add, replacing a per-call map.
	pathSeenEpoch uint64
	pathSeenStamp []uint64
	// specChunk is the capacity of the latest specs array, and routeSlab
	// the unused tail of the chunk Add copies oblivious paths into (its
	// size routeChunk). Both double, so a simulator of a few messages
	// stays small and a recycled one allocates rarely; neither is
	// copied, and a copied path is never written again.
	specChunk  int
	routeSlab  []topology.ChannelID
	routeChunk int

	// tracer receives trace events while attached; nil (the default) is
	// the disabled state, guarded by one branch per emission site. Clone
	// and CopyFrom never propagate it: search clones stay silent.
	tracer obsv.Tracer
	// telemetry receives periodic channel-state samples while attached;
	// nil (the default) is the disabled state, guarded by one branch per
	// step. Like the tracer it is per-instance working memory: never
	// propagated by Clone/CopyFrom, never touched by Reset.
	telemetry *telemetry.Collector
	// waits remembers the last wait-for edge reported per message, so
	// Step can emit block/unblock and wait-edge add/del transitions.
	// Maintained only while a tracer is attached.
	waits obsv.WaitGraph
}

// freeing reports whether channel c was predicted to release this cycle
// by the most recent predictReleases pass. Always false in strict mode.
// The pass marks the tail channel of every worm that would release it if
// free to move, so a frozen holder is ruled out here: that keeps the
// marks independent of freezes. A channel without a holder was released
// earlier in the same step, by a holder that moved.
func (s *Sim) freeing(c topology.ChannelID) bool {
	if !s.cfg.SameCycleHandoff || s.freeingStamp[c] != s.releaseEpoch {
		return false
	}
	h := s.holder(c)
	return h < 0 || s.msgs[h].frozen == 0
}

// granted returns the channel message id won in this step's arbitration
// phase. Only meaningful between the grant loop and the end of the same
// step.
func (s *Sim) granted(id int) (topology.ChannelID, bool) {
	if s.grantStamp[id] == s.grantEpoch {
		return s.grantCh[id], true
	}
	return topology.None, false
}

// ensureChannelStamps grows the channel-indexed stamp arenas to cover the
// network. New slots are zero, which every epoch counter has already
// passed (counters are bumped before first use), so they read as unset.
func (s *Sim) ensureChannelStamps() {
	n := s.net.NumChannels()
	for len(s.freeingStamp) < n {
		s.freeingStamp = append(s.freeingStamp, 0)
	}
	for len(s.pathSeenStamp) < n {
		s.pathSeenStamp = append(s.pathSeenStamp, 0)
	}
}

// ensureGrantArena grows the message-indexed grant arena.
func (s *Sim) ensureGrantArena() {
	for len(s.grantStamp) < len(s.msgs) {
		s.grantStamp = append(s.grantStamp, 0)
		s.grantCh = append(s.grantCh, topology.None)
	}
}

// ensureActive inserts id into the sorted active list if absent. Needed
// only when a delivered message re-enters the working set: a freeze placed
// on a delivered message.
func (s *Sim) ensureActive(id int) {
	i, found := slices.BinarySearch(s.active, int32(id))
	if found {
		return
	}
	s.active = slices.Insert(s.active, i, int32(id))
}

// New returns an empty simulator for net.
func New(net *topology.Network, cfg Config) *Sim {
	if cfg.BufferDepth <= 0 {
		cfg.BufferDepth = 1
	}
	if cfg.Arbiter == nil {
		cfg.Arbiter = FIFOArbiter{}
	}
	return &Sim{net: net, cfg: cfg, owner: make([]int32, net.NumChannels())}
}

// adaptiveRoom is the number of route slots Add reserves for an adaptive
// message (at most one per channel); a longer route widens them.
const adaptiveRoom = 16

// Add validates and registers a message, returning its ID (dense from 0 in
// insertion order).
func (s *Sim) Add(spec MessageSpec) (int, error) {
	if spec.Length < 1 {
		return -1, fmt.Errorf("sim: message length %d < 1", spec.Length)
	}
	if spec.Src == spec.Dst {
		return -1, fmt.Errorf("sim: message source equals destination (%d)", spec.Src)
	}
	if spec.Route != nil {
		if spec.Path != nil {
			return -1, fmt.Errorf("sim: message has both a fixed path and an adaptive route")
		}
	} else {
		if len(spec.Path) == 0 {
			return -1, fmt.Errorf("sim: message has no path")
		}
		if !s.net.IsPath(spec.Src, spec.Dst, spec.Path) {
			return -1, fmt.Errorf("sim: message path %v is not a contiguous %d -> %d path", spec.Path, spec.Src, spec.Dst)
		}
		if dup, ok := s.pathDuplicate(spec.Path); ok {
			return -1, fmt.Errorf("sim: message path %v uses channel %d twice; a message may hold a channel only once", spec.Path, dup)
		}
	}
	if spec.InjectAt < 0 {
		return -1, fmt.Errorf("sim: negative injection time %d", spec.InjectAt)
	}
	id := len(s.msgs)
	if id >= math.MaxInt32 {
		return -1, fmt.Errorf("sim: message ID %d does not fit a channel owner", id)
	}
	m := msgState{
		id:           id,
		injectAt:     spec.InjectAt,
		length:       spec.Length,
		head:         -1,
		mask:         topology.None,
		injectedAt:   -1,
		deliveredAt:  -1,
		waitingSince: -1,
		adaptive:     spec.Route != nil,
	}
	if m.adaptive {
		m.room = min(adaptiveRoom, s.net.NumChannels())
		m.hop = reserve(&s.hops, m.room)
	} else {
		spec.Path = s.copyRoute(spec.Path)
		m.n, m.room = len(spec.Path), len(spec.Path)
	}
	m.off = reserve(&s.flits, m.room)
	s.addSpec(spec)
	s.msgs = append(s.msgs, m)
	s.active = append(s.active, int32(id))
	s.liveCount++
	s.planned = false
	s.predicted = false
	return id, nil
}

// reserve appends n zeroed slots to *a and returns the index of the
// first.
func reserve[T int32 | topology.ChannelID](a *[]T, n int) int {
	off := len(*a)
	*a = slices.Grow(*a, n)[:off+n]
	clear((*a)[off:])
	return off
}

// widen moves adaptive message m to ranges of flits and hops with room
// for at least need slots, keeping its path and queue. Room doubles, up
// to one slot per channel: a route never repeats a channel. The old
// ranges stay behind unused.
func (s *Sim) widen(m *msgState, need int) {
	room := max(min(2*m.room, s.net.NumChannels()), need)
	off, hop := reserve(&s.flits, room), reserve(&s.hops, room)
	copy(s.flits[off:], s.queue(m))
	copy(s.hops[hop:], s.path(m))
	m.off, m.hop, m.room = off, hop, room
}

// extend appends channel c, with an empty queue slot, to adaptive message
// m's path, widening its ranges when they are full.
func (s *Sim) extend(m *msgState, c topology.ChannelID) {
	if m.n == m.room {
		s.widen(m, m.n+1)
	}
	s.hops[m.hop+m.n] = c
	s.flits[m.off+m.n] = 0
	m.n++
}

// addSpec appends spec to s.specs. Clones share the specs array (CopyFrom
// hands out capacity-limited views of it), so a slot must never be
// written twice: Reset moves the slice past its used slots instead of
// truncating it, and a full array moves the current specs to a fresh one
// of twice the size, from 8 up to 256 slots after a Reset, so a recycled
// simulator settles below one allocation per 256 Adds.
func (s *Sim) addSpec(spec MessageSpec) {
	if len(s.specs) == cap(s.specs) {
		s.specChunk = max(2*len(s.specs), min(max(8, 2*s.specChunk), 256))
		grown := make([]MessageSpec, len(s.specs), s.specChunk)
		copy(grown, s.specs)
		s.specs = grown
	}
	s.specs = append(s.specs, spec)
}

// copyRoute copies an oblivious path into the route slab, so a caller
// that reuses its slice cannot change a registered message. Chunks
// double from 64 to 4096 channels; a copied path is never written again,
// so clones share it.
func (s *Sim) copyRoute(path []topology.ChannelID) []topology.ChannelID {
	n := len(path)
	if len(s.routeSlab) < n {
		s.routeChunk = max(n, min(max(64, 2*s.routeChunk), 4096))
		s.routeSlab = make([]topology.ChannelID, s.routeChunk)
	}
	out := s.routeSlab[:n:n]
	copy(out, path)
	s.routeSlab = s.routeSlab[n:]
	return out
}

// pathDuplicate reports the first channel a path visits twice, using the
// epoch-stamped scratch arena instead of a per-call map. Paths have
// already passed IsPath, so every ID indexes the stamp array.
func (s *Sim) pathDuplicate(path []topology.ChannelID) (topology.ChannelID, bool) {
	s.ensureChannelStamps()
	s.pathSeenEpoch++
	for _, c := range path {
		if s.pathSeenStamp[c] == s.pathSeenEpoch {
			return c, true
		}
		s.pathSeenStamp[c] = s.pathSeenEpoch
	}
	return topology.None, false
}

// MustAdd is Add that panics on error.
func (s *Sim) MustAdd(spec MessageSpec) int {
	id, err := s.Add(spec)
	if err != nil {
		panic(err)
	}
	return id
}

// SetTracer attaches (or, with nil, detaches) a trace event consumer.
// Events carry only logical quantities, so for a fixed scenario and
// schedule the emitted sequence is deterministic. The tracer is never
// copied by Clone or CopyFrom.
func (s *Sim) SetTracer(t obsv.Tracer) {
	s.tracer = t
	s.waits.Reset(len(s.msgs))
}

// SetTelemetry attaches (or, with nil, detaches) a telemetry collector.
// On every cycle divisible by the collector's stride, Step ends with one
// O(channels + live messages) scan recording per-channel busy/occupancy/
// blocked counts — no allocations, so long load runs sample for free.
// Samples depend only on simulation state, never on wall clock, keeping
// telemetry frames deterministic. Like the tracer, the collector is never
// copied by Clone or CopyFrom.
func (s *Sim) SetTelemetry(c *telemetry.Collector) { s.telemetry = c }

// Now returns the current cycle.
func (s *Sim) Now() int { return s.now }

// NumMessages returns the number of registered messages.
func (s *Sim) NumMessages() int { return len(s.msgs) }

// Owner returns the ID of the message holding channel c, or -1.
func (s *Sim) Owner(c topology.ChannelID) int { return s.holder(c) }

// holder returns the ID of the message holding channel c, or -1.
func (s *Sim) holder(c topology.ChannelID) int { return int(s.owner[c]) - 1 }

// holds reports whether message m holds channel c.
func (s *Sim) holds(m *msgState, c topology.ChannelID) bool { return int(s.owner[c]) == m.id+1 }

// take hands channel c to message m.
func (s *Sim) take(m *msgState, c topology.ChannelID) { s.owner[c] = int32(m.id + 1) }

// SetFrozen freezes message id for the next n cycles: it will not move or
// contend for channels even when able (the Section 6 fault model). Calling
// with n = 0 unfreezes.
func (s *Sim) SetFrozen(id, n int) {
	m := &s.msgs[id]
	m.frozen = n
	s.planned = false
	if n > 0 && m.delivered() {
		// A delivered message may already be compacted out of the active
		// list; the freeze countdown is encoded state, so it must rejoin
		// the working set until the counter drains.
		s.ensureActive(id)
	}
}

// Frozen returns the remaining frozen cycles of message id.
func (s *Sim) Frozen(id int) int { return s.msgs[id].frozen }

// SetHeld controls source-side injection: a held message's source does not
// attempt injection regardless of InjectAt. Holding a message that has
// already begun injecting has no effect: its remaining flits follow the
// header, so a worm never has a gap. Model checkers use this to realize
// assumption 1's "any injection time".
func (s *Sim) SetHeld(id int, held bool) {
	s.msgs[id].held = held
	s.planned = false
}

// SetMask restricts an adaptive message to request only the given channel
// during the next Step; the mask clears when the step completes. Model
// checkers use it to enumerate adaptive selection nondeterminism: the
// masked channel must be one of the message's current candidates (this is
// the caller's responsibility — a stale mask simply blocks the message for
// one cycle). Pass topology.None to clear. Masks on oblivious messages are
// ignored.
func (s *Sim) SetMask(id int, c topology.ChannelID) {
	s.msgs[id].mask = c
	s.planned = false
	s.predicted = false
}

// Held reports whether message id is held at its source.
func (s *Sim) Held(id int) bool { return s.msgs[id].held }

// Contention describes one contested free channel: the messages whose
// header may acquire it this cycle.
type Contention struct {
	Channel    topology.ChannelID
	Contenders []int // message IDs, sorted
}

// AcquirableCandidates returns the channels message id wants and could
// acquire this cycle (free now, or releasing under same-cycle handoff).
// Search code enumerates adaptive selection nondeterminism over this set
// via SetMask.
func (s *Sim) AcquirableCandidates(id int) []topology.ChannelID {
	s.predictReleases()
	var out []topology.ChannelID
	for _, c := range s.wantedChannels(&s.msgs[id]) {
		if s.acquirable(c) {
			out = append(out, c)
		}
	}
	return out
}

// IsAdaptive reports whether message id routes adaptively.
func (s *Sim) IsAdaptive(id int) bool { return s.msgs[id].adaptive }

// Contentions returns this cycle's channel-acquisition choice points: every
// acquirable channel (free now, or — with same-cycle handoff — freed by a
// departing tail this cycle) that two or more eligible headers request
// simultaneously. Channels requested by a single header are not included
// (no choice).
//
// The result and its Contenders slices are Sim-owned scratch, valid until
// the next Contentions call on this simulator; stepping or copying the
// simulator does not touch them. In steady state the query allocates
// nothing. The query also leaves the cycle's arbitration plan behind for
// StepFrom.
func (s *Sim) Contentions() []Contention {
	s.predictReleases()
	reqs := s.collectRequests(s.queryReqs)
	s.queryReqs = reqs
	s.planned = true
	// Every contender is one request, so sizing the id arena to the
	// requests keeps it from moving under the Contenders already carved.
	ids := slices.Grow(s.contIDs[:0], len(reqs))
	out := s.contOut[:0]
	for i := 0; i < len(reqs); {
		c := topology.ChannelID(reqs[i] >> 32)
		j := i
		for j < len(reqs) && topology.ChannelID(reqs[j]>>32) == c {
			j++
		}
		if j-i > 1 {
			start := len(ids)
			for k := i; k < j; k++ {
				ids = append(ids, int(uint32(reqs[k])))
			}
			out = append(out, Contention{Channel: c, Contenders: ids[start:len(ids):len(ids)]})
		}
		i = j
	}
	s.contIDs, s.contOut = ids, out
	return out
}

// collectRequests appends this cycle's acquisition requests to buf as
// packed (channel<<32 | message) pairs, records in wanting which active
// messages want a channel at all, and sorts the requests: channels come
// out in ascending ID order, each with its contenders ascending — the exact
// order the old per-cycle request map produced after its two sorts. A
// channel is requestable when it is free, or when the most recent
// predictReleases pass marked it releasing (same-cycle handoff). Adaptive
// messages may request several channels at once; grant resolution ensures
// each message wins at most one.
func (s *Sim) collectRequests(buf []uint64) []uint64 {
	reqs := buf[:0]
	if len(s.wanting) < len(s.msgs) {
		// Doubling: a load run adds messages one at a time. Stale bits
		// need no clearing, since every active message's is written.
		s.wanting = make([]bool, max(2*len(s.wanting), len(s.msgs), 64))
	}
	for _, id := range s.active {
		m := &s.msgs[id]
		wants := s.wantedChannels(m)
		s.wanting[id] = len(wants) > 0
		for _, c := range wants {
			if s.acquirable(c) {
				reqs = append(reqs, uint64(c)<<32|uint64(uint32(m.id)))
			}
		}
	}
	slices.Sort(reqs)
	return reqs
}

// arrived reports whether the message's materialized path already ends at
// its destination (always true for oblivious messages at the last index).
func (s *Sim) arrived(m *msgState) bool {
	if !m.adaptive {
		return true
	}
	return m.n > 0 && s.net.Channel(s.hops[m.hop+m.n-1]).Dst == s.specs[m.id].Dst
}

// predictReleases stamps the channels whose owner's tail will depart this
// cycle into the freeingStamp arena under a fresh releaseEpoch (query the
// result with freeing). The owner's own header acquisition is predicted
// optimistically (it moves whenever its next channel is free at the start
// of the cycle); if the owner then loses that arbitration the release does
// not happen, and the acquisition guard in moveMessage makes the granted
// waiter simply stall one more cycle. In strict-handoff mode it only
// advances the epoch, leaving every channel unmarked. Frozen messages
// are predicted as if free to move, and freeing rules their marks out,
// so the marks do not depend on freezes. While the predicted flag
// stands, the marks already describe the state and it returns at once.
func (s *Sim) predictReleases() {
	if s.predicted {
		return
	}
	s.predicted = true
	s.releaseEpoch++
	if !s.cfg.SameCycleHandoff {
		return
	}
	s.ensureChannelStamps()
	for _, id := range s.active {
		m := &s.msgs[id]
		if m.delivered() || m.injected < m.length {
			continue
		}
		q := s.queue(m)
		low := -1
		for i, n := range q {
			if n > 0 {
				low = i
				break
			}
		}
		if low < 0 || q[low] != 1 {
			continue
		}
		// Walk the worm front to back, computing whether one flit departs
		// each occupied channel this cycle (mirrors the movement pass).
		path := s.path(m)
		h := m.head
		last := len(path) - 1
		departs := s.departsBuf
		if cap(departs) < h+1 {
			departs = make([]bool, h+1)
			s.departsBuf = departs
		} else {
			departs = departs[:h+1]
		}
		clear(departs)
		for i := h; i >= low; i-- {
			if q[i] == 0 {
				continue
			}
			if i == last {
				if s.arrived(m) {
					departs[i] = true // consumption never blocks
					continue
				}
				// Adaptive frontier: optimistically departs when any
				// candidate channel is free at the start of the cycle.
				// These are the channels wantedChannels returns when m is
				// not frozen.
				in := path[i]
				for _, c := range s.adaptiveCandidates(m, s.net.Channel(in).Dst, in) {
					if s.owner[c] == 0 {
						departs[i] = true
						break
					}
				}
				continue
			}
			next := path[i+1]
			if !s.holds(m, next) {
				// Header acquisition: optimistically moves when the
				// channel is free at the start of the cycle.
				departs[i] = i == h && !m.headerConsumed && s.owner[next] == 0
				continue
			}
			free := s.cfg.BufferDepth - int(q[i+1])
			if i+1 <= h && departs[i+1] {
				free++
			}
			departs[i] = free > 0
		}
		if departs[low] {
			s.freeingStamp[path[low]] = s.releaseEpoch
		}
	}
}

// wantedChannels returns the channels the message's header may acquire
// next, if the message is eligible to request one this cycle (not
// delivered, not frozen, header not consumed, and — for injection — ready
// and not held). Oblivious messages want exactly their next path channel;
// adaptive messages want every usable candidate their route function
// offers.
func (s *Sim) wantedChannels(m *msgState) []topology.ChannelID {
	if m.delivered() || m.frozen > 0 || m.headerConsumed {
		return nil
	}
	var at topology.NodeID
	in := topology.None
	if m.injected == 0 {
		if m.held || s.now < m.injectAt {
			return nil
		}
		if !m.adaptive {
			return s.specs[m.id].Path[:1]
		}
		at = s.specs[m.id].Src
	} else {
		h := m.head
		if h < 0 {
			return nil
		}
		if !m.adaptive {
			path := s.specs[m.id].Path
			if h == len(path)-1 {
				return nil // header at the destination channel: consumption
			}
			return path[h+1 : h+2]
		}
		// An adaptive header is always at the end of the materialized
		// path.
		if h != m.n-1 || s.arrived(m) {
			return nil
		}
		in = s.hops[m.hop+h]
		at = s.net.Channel(in).Dst
	}
	return s.adaptiveCandidates(m, at, in)
}

// adaptiveCandidates filters the route function's candidates: they must
// leave the current node, must not revisit a channel the message already
// used (a message may hold a channel only once), and must match the
// message's selection mask when one is set. The result is backed by the
// sim-owned wantBuf scratch slice: it is valid only until the next
// wantedChannels/adaptiveCandidates call and must not be retained.
func (s *Sim) adaptiveCandidates(m *msgState, at topology.NodeID, in topology.ChannelID) []topology.ChannelID {
	spec := &s.specs[m.id]
	raw := spec.Route(at, in, spec.Dst)
	out := s.wantBuf[:0]
	for _, c := range raw {
		if c < 0 || int(c) >= s.net.NumChannels() || s.net.Channel(c).Src != at {
			continue
		}
		if m.mask != topology.None && c != m.mask {
			continue
		}
		if !slices.Contains(s.path(m), c) {
			out = append(out, c)
		}
	}
	s.wantBuf = out[:0]
	return out
}

// StepResult reports what happened in one cycle.
type StepResult struct {
	Moved bool // some flit moved (including injection and consumption)
}

// Step advances the simulation one cycle using the configured arbiter.
func (s *Sim) Step() StepResult {
	return s.step(nil)
}

// StepWithPicks advances one cycle, resolving the given contested channels
// in favor of the specified message IDs; remaining contests fall back to
// the configured arbiter. A pick naming a message that is not actually a
// contender for the channel panics: the caller enumerated stale choices.
func (s *Sim) StepWithPicks(picks map[topology.ChannelID]int) StepResult {
	return s.step(picks)
}

// StepFrom makes s probe's successor under picks: it copies probe into s
// and advances the copy one cycle against the arbitration plan probe's
// latest Contentions call computed, so a search stepping many successors
// of one probe pays for release prediction and request collection once.
// The result is exactly CopyFrom(probe) followed by StepWithPicks(picks).
// It panics when probe's state changed after that Contentions call, since
// the plan would then describe another state. Both simulators must be
// built for the same network.
func (s *Sim) StepFrom(probe *Sim, picks map[topology.ChannelID]int) StepResult {
	if !probe.planned {
		panic("sim: StepFrom: the probe changed since its last Contentions call")
	}
	s.CopyFrom(probe)
	return s.advance(probe, probe.queryReqs, picks)
}

// step runs phase 1 on s itself and hands the plan to advance. Phase 1 is
// the cycle's arbitration plan: the channels predicted to release (same-
// cycle handoff) and the sorted acquisition requests. In strict mode the
// requests see start-of-cycle ownership; with same-cycle handoff,
// channels releasing this cycle are acquirable too.
func (s *Sim) step(picks map[topology.ChannelID]int) StepResult {
	s.predictReleases()
	s.stepReqs = s.collectRequests(s.stepReqs)
	return s.advance(s, s.stepReqs, picks)
}

// advance runs phases 2 and 3 of a cycle, the one movement body behind
// Step, StepWithPicks and StepFrom. plan is the simulator whose latest
// predictReleases pass marked the releasing channels, and reqs its sorted
// request list, collected with its wanting bits; all must describe s's
// current state (plan is s itself, or the probe s was just copied from).
// All working memory comes from the Sim's scratch arenas: a steady-state
// step allocates nothing.
func (s *Sim) advance(plan *Sim, reqs []uint64, picks map[topology.ChannelID]int) StepResult {
	// Phase 2: arbitration, then movement.
	s.ensureGrantArena()
	s.grantEpoch++
	// Resolve grants channel by channel in ascending ID order so that an
	// adaptive message contending on several channels wins at most one
	// (deterministically the lowest); contenders that already won an
	// earlier channel drop out of later contests. The sorted request
	// pairs deliver each channel's contenders already ascending, which is
	// the order the Arbiter contract requires.
	for i := 0; i < len(reqs); {
		c := topology.ChannelID(reqs[i] >> 32)
		ids := s.contBuf[:0]
		for ; i < len(reqs) && topology.ChannelID(reqs[i]>>32) == c; i++ {
			id := int(uint32(reqs[i]))
			if s.grantStamp[id] != s.grantEpoch {
				ids = append(ids, id)
			}
		}
		s.contBuf = ids
		if len(ids) == 0 {
			continue
		}
		var winner int
		if pick, ok := picks[c]; ok {
			found := false
			for _, id := range ids {
				if id == pick {
					found = true
				}
			}
			if !found {
				panic(fmt.Sprintf("sim: pick %d is not a contender for channel %d (contenders %v)", pick, c, ids))
			}
			winner = pick
		} else if len(ids) == 1 {
			winner = ids[0]
		} else {
			winner = s.cfg.Arbiter.Pick(s, c, ids)
		}
		s.grantStamp[winner] = s.grantEpoch
		s.grantCh[winner] = c
	}

	// Track waiting-since for FIFO arbitration: a message that wants a
	// channel (free or not) and does not get one this cycle is waiting.
	// Delivered messages outside the active list keep waitingSince == -1:
	// it was reset on the cycle their header reached the destination
	// (wantedChannels was already empty) and nothing sets it afterwards.
	// The plan recorded who wants a channel when it collected reqs.
	for _, id := range s.active {
		m := &s.msgs[id]
		if plan.wanting[id] {
			if _, won := s.granted(m.id); !won {
				if m.waitingSince < 0 {
					m.waitingSince = s.now
				}
				continue
			}
		}
		m.waitingSince = -1
	}

	// Movement, per message, front slot to back slot. In strict
	// mode the order across messages does not matter: cross-message
	// interaction happens only through acquisition (already arbitrated
	// against the snapshot) and end-of-cycle release. With same-cycle
	// handoff, releases apply immediately, and messages granted a
	// releasing channel move after everyone else so the release has
	// happened by the time they acquire.
	moved := false
	s.releases = s.releases[:0]
	deferred := s.deferredBuf[:0]
	for _, id := range s.active {
		if c, won := s.granted(int(id)); won && plan.freeing(c) {
			deferred = append(deferred, id)
			continue
		}
		if s.moveMessage(&s.msgs[id]) {
			moved = true
		}
	}
	for _, id := range deferred {
		if s.moveMessage(&s.msgs[id]) {
			moved = true
		}
	}
	s.deferredBuf = deferred[:0]

	// Phase 3: end-of-cycle releases (strict mode), freeze countdown, and
	// active-list compaction: a delivered message leaves the working set
	// once its freeze counter (encoded state) has drained.
	for _, c := range s.releases {
		// A release entry is only created when the owning message's tail
		// left the channel; the owner cannot have changed within the cycle
		// because acquisitions were arbitrated against the snapshot, which
		// showed the channel owned.
		s.owner[c] = 0
	}
	thawed := false
	kept := s.active[:0]
	for _, id := range s.active {
		m := &s.msgs[id]
		if m.frozen > 0 {
			m.frozen--
			thawed = true
			if s.tracer != nil && m.frozen == 0 {
				ev := obsv.Ev(obsv.KindThaw, s.now)
				ev.Msg = m.id
				s.tracer.Event(ev)
			}
		}
		m.mask = topology.None
		if !m.delivered() || m.frozen > 0 {
			kept = append(kept, id)
		}
	}
	s.active = kept
	if s.tracer != nil {
		s.traceWaits()
	}
	if s.telemetry != nil && s.telemetry.Due(s.now) {
		s.sampleTelemetry()
	}
	s.now++
	s.lastMoved = moved
	s.lastThawed = thawed
	s.planned = false
	s.predicted = false
	return StepResult{Moved: moved}
}

// sampleTelemetry records one end-of-cycle telemetry sample: which
// channels are held (busy), how many flits each buffers (occupancy), and
// which channels participate in a blocking dependency — held by a
// blocked message (a resource pinned by a stuck worm, the congestion-
// tree signal) or waited for by a blocked header (the Definition 6
// wait-for target). Runs after phase 3, so the sample sees the same
// settled state the next cycle's arbitration will. Allocation-free: the
// collector's accumulators are preallocated and WaitsFor uses the Sim's
// scratch arenas.
func (s *Sim) sampleTelemetry() {
	busy, occ, blocked := s.telemetry.Accum()
	for c, own := range s.owner {
		if own > 0 {
			busy[c]++
			if s.msgs[own-1].waitingSince >= 0 {
				blocked[c]++
			}
		}
	}
	for _, id := range s.active {
		m := &s.msgs[id]
		path := s.path(m)
		for i, q := range s.queue(m) {
			if q > 0 {
				occ[path[i]] += uint32(q)
			}
		}
		if m.waitingSince >= 0 {
			if ch, _, ok := s.WaitsFor(int(id)); ok {
				blocked[ch]++
			}
		}
	}
	s.telemetry.FinishSample(s.now, s.flitsConsumed, s.liveCount)
}

// release records that channel c's tail departed this cycle: immediately
// freeing it under same-cycle handoff, at end of cycle in strict mode.
func (s *Sim) release(c topology.ChannelID) {
	if s.tracer != nil {
		// The owner is still recorded at release time in both handoff
		// modes: strict mode clears it in phase 3, same-cycle mode on
		// the next line.
		ev := obsv.Ev(obsv.KindRelease, s.now)
		ev.Msg = s.holder(c)
		ev.Ch = c
		s.tracer.Event(ev)
	}
	if s.cfg.SameCycleHandoff {
		s.owner[c] = 0
	} else {
		s.releases = append(s.releases, c)
	}
}

// traceWaits diffs each message's current Definition 6 wait-for edge
// against the last one reported and emits the block/unblock and
// wait-edge add/del transitions. Runs at the end of Step — after
// movement and releases — and only while a tracer is attached, so an
// untraced Step never reaches it.
func (s *Sim) traceWaits() {
	for id := range s.msgs {
		ch, owner, ok := s.WaitsFor(id)
		lastCh, lastOwner, had := s.waits.WaitsFor(id)
		if !ok {
			if had {
				ev := obsv.Ev(obsv.KindWaitEdgeDel, s.now)
				ev.Msg = id
				ev.Ch = lastCh
				ev.Owner = lastOwner
				s.tracer.Event(ev)
				ev.Kind = obsv.KindUnblock
				s.tracer.Event(ev)
				s.waits.Unwait(id)
			}
			continue
		}
		if had && lastCh == ch && lastOwner == owner {
			continue
		}
		if had {
			// Retargeted while still blocked: swap the edge, no unblock.
			ev := obsv.Ev(obsv.KindWaitEdgeDel, s.now)
			ev.Msg = id
			ev.Ch = lastCh
			ev.Owner = lastOwner
			s.tracer.Event(ev)
		} else {
			ev := obsv.Ev(obsv.KindBlock, s.now)
			ev.Msg = id
			ev.Ch = ch
			ev.Owner = owner
			s.tracer.Event(ev)
		}
		ev := obsv.Ev(obsv.KindWaitEdgeAdd, s.now)
		ev.Msg = id
		ev.Ch = ch
		ev.Owner = owner
		s.tracer.Event(ev)
		s.waits.Wait(id, ch, owner)
	}
}

// moveMessage advances one message's flits front to back for one cycle,
// releasing each channel its tail departs. It reports whether any flit
// moved. Acquisitions succeed only for channels granted to the message in
// this step's arbitration phase that are actually free at the moment of
// the move (with same-cycle handoff a predicted release may not have
// applied when handoff chains exceed depth one; the acquisition is then
// skipped).
func (s *Sim) moveMessage(m *msgState) bool {
	if m.delivered() || m.frozen > 0 {
		return false
	}
	moved := false
	h := m.head
	q, path := s.queue(m), s.path(m)
	last := len(path) - 1
	for i := h; i >= 0; i-- {
		if q[i] == 0 {
			continue
		}
		if i == last {
			if s.arrived(m) {
				// One flit per cycle into the destination's sink, the
				// head slot: emptying it is the one move that lowers the
				// head.
				q[i]--
				if q[i] == 0 {
					m.head = s.scanHead(m)
				}
				m.consumed++
				m.headerConsumed = true
				s.flitsConsumed++
				moved = true
				if s.tracer != nil {
					ev := obsv.Ev(obsv.KindConsume, s.now)
					ev.Msg = m.id
					ev.Ch = path[i]
					s.tracer.Event(ev)
				}
				if q[i] == 0 && s.noTailBehind(m, i) {
					s.release(path[i])
				}
				if m.delivered() {
					m.deliveredAt = s.now
					s.liveCount--
					if s.tracer != nil {
						ev := obsv.Ev(obsv.KindDeliver, s.now)
						ev.Msg = m.id
						ev.N = s.now - m.injectedAt + 1
						s.tracer.Event(ev)
					}
				}
				continue
			}
			// Adaptive header at the frontier of its materialized path:
			// extend it with the granted candidate, if any is free. The
			// path may move to wider ranges, so both views are taken
			// again.
			if i == h && !m.headerConsumed {
				if c, won := s.granted(m.id); won && s.owner[c] == 0 {
					s.acquire(m, i, c)
					q, path = s.queue(m), s.path(m)
					moved = true
				}
			}
			continue
		}
		next := path[i+1]
		if s.holds(m, next) {
			if int(q[i+1]) < s.cfg.BufferDepth {
				q[i]--
				q[i+1]++
				if i+1 > m.head {
					m.head = i + 1 // refilling the sink slot consumption emptied
				}
				moved = true
				if s.tracer != nil {
					ev := obsv.Ev(obsv.KindFlit, s.now)
					ev.Msg = m.id
					ev.Ch = next
					s.tracer.Event(ev)
				}
				if q[i] == 0 && s.noTailBehind(m, i) {
					s.release(path[i])
				}
			}
			continue
		}
		// Oblivious header acquisition of its fixed next channel.
		if i == h && !m.headerConsumed && s.owner[next] == 0 {
			if c, won := s.granted(m.id); won && c == next {
				s.acquire(m, i, c)
				moved = true
			}
		}
	}
	// Injection: source -> path[0]. Holding stops only the first flit.
	if m.injected < m.length && (m.injected > 0 || !m.held) && s.now >= m.injectAt {
		if m.injected == 0 {
			if c, won := s.granted(m.id); won && s.owner[c] == 0 {
				if !m.adaptive && c != path[0] {
					panic("sim: oblivious message granted a foreign channel")
				}
				s.take(m, c)
				if m.adaptive {
					s.extend(m, c)
				}
				s.flits[m.off]++
				m.head = 0
				m.injected++
				m.injectedAt = s.now
				moved = true
				if s.tracer != nil {
					ev := obsv.Ev(obsv.KindInject, s.now)
					ev.Msg = m.id
					ev.Ch = c
					s.tracer.Event(ev)
					ev.Kind = obsv.KindAcquire
					s.tracer.Event(ev)
				}
			}
		} else if first := path[0]; s.holds(m, first) && int(q[0]) < s.cfg.BufferDepth {
			q[0]++
			if m.head < 0 {
				m.head = 0 // a drained worm whose source still holds flits
			}
			m.injected++
			moved = true
			if s.tracer != nil {
				ev := obsv.Ev(obsv.KindFlit, s.now)
				ev.Msg = m.id
				ev.Ch = first
				s.tracer.Event(ev)
			}
		}
	}
	return moved
}

// acquire hands channel c to message m and moves its head flit forward
// from path index i; for adaptive messages it first extends the
// materialized path by the granted channel (for oblivious ones the slot
// already exists), which may move the message's ranges.
func (s *Sim) acquire(m *msgState, i int, c topology.ChannelID) {
	s.take(m, c)
	if s.tracer != nil {
		ev := obsv.Ev(obsv.KindAcquire, s.now)
		ev.Msg = m.id
		ev.Ch = c
		s.tracer.Event(ev)
	}
	if m.adaptive {
		s.extend(m, c)
	}
	q := s.queue(m)
	q[i]--
	q[i+1]++
	m.head = i + 1
	if q[i] == 0 && s.noTailBehind(m, i) {
		s.release(s.path(m)[i])
	}
}

// noTailBehind reports whether none of this message's flits sit strictly
// behind path index i (at the source or buffered in an earlier channel) —
// the release condition for channel i once its buffer empties. While the
// source still holds flits it is O(1), and the scan exits at the first
// occupied slot, so the hot loop never pays a full prefix sum.
func (s *Sim) noTailBehind(m *msgState, i int) bool {
	if m.injected < m.length {
		return false
	}
	for _, n := range s.flits[m.off : m.off+i] {
		if n != 0 {
			return false
		}
	}
	return true
}

// AllDelivered reports whether every message has been fully consumed.
func (s *Sim) AllDelivered() bool { return s.liveCount == 0 }

// FlitsConsumed returns the total number of flits consumed at
// destinations since New or Reset. The counter is monotone, so window
// deltas measure accepted throughput.
func (s *Sim) FlitsConsumed() int64 { return s.flitsConsumed }

// quiescent reports whether the state can never change again without
// external intervention: nothing moved last cycle, no message is frozen,
// none is held before injecting, and no injection lies in the future. In a quiescent state
// with undelivered messages the network is deadlocked.
func (s *Sim) quiescent() bool {
	if s.lastMoved || s.lastThawed {
		return false
	}
	for _, id := range s.active {
		m := &s.msgs[id]
		if m.delivered() {
			continue
		}
		if m.frozen > 0 || (m.held && m.injected == 0) || s.now <= m.injectAt {
			return false
		}
	}
	return true
}

// Quiescent reports whether the simulation provably cannot move again
// without external intervention (see quiescent); with undelivered
// messages present this is an exact deadlock certificate.
func (s *Sim) Quiescent() bool { return s.quiescent() }

// Result classifies the end state of Run.
type Result int

const (
	// ResultDelivered: every message was fully consumed.
	ResultDelivered Result = iota
	// ResultDeadlock: the network reached a stable state with undelivered
	// messages — no flit can ever move again.
	ResultDeadlock
	// ResultTimeout: the cycle budget was exhausted first.
	ResultTimeout
)

// String renders the result.
func (r Result) String() string {
	switch r {
	case ResultDelivered:
		return "delivered"
	case ResultDeadlock:
		return "deadlock"
	case ResultTimeout:
		return "timeout"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Outcome is the final report of Run.
type Outcome struct {
	Result      Result
	Cycles      int   // cycles executed
	Undelivered []int // message IDs not delivered (deadlock/timeout)
}

// Run steps the simulation until every message is delivered, the network
// deadlocks (a provably stable non-empty state), or maxCycles elapse.
// Deadlock detection is exact, not timeout-based: the transition function
// is deterministic once injections are due and freezes expired, so a cycle
// with no movement proves no movement can ever happen.
func (s *Sim) Run(maxCycles int) Outcome {
	for c := 0; c < maxCycles && !s.AllDelivered(); c++ {
		s.Step()
		if !s.lastMoved && s.quiescent() && !s.AllDelivered() {
			return s.finishRun(Outcome{Result: ResultDeadlock, Cycles: s.now, Undelivered: s.undelivered()})
		}
	}
	if s.AllDelivered() {
		return s.finishRun(Outcome{Result: ResultDelivered, Cycles: s.now})
	}
	return s.finishRun(Outcome{Result: ResultTimeout, Cycles: s.now, Undelivered: s.undelivered()})
}

// finishRun emits the end-of-run trace events (an exact deadlock
// certificate when applicable, then the outcome) and passes the outcome
// through.
func (s *Sim) finishRun(out Outcome) Outcome {
	if s.tracer != nil {
		if out.Result == ResultDeadlock {
			ev := obsv.Ev(obsv.KindDeadlock, s.now)
			ev.N = len(out.Undelivered)
			s.tracer.Event(ev)
		}
		ev := obsv.Ev(obsv.KindOutcome, s.now)
		ev.N = out.Cycles
		ev.Note = out.Result.String()
		s.tracer.Event(ev)
	}
	return out
}

func (s *Sim) undelivered() []int {
	var ids []int
	for i := range s.msgs {
		if !s.msgs[i].delivered() {
			ids = append(ids, i)
		}
	}
	return ids
}

// Clone returns a deep copy sharing only the immutable network, message
// specs and arbiter; Pick must not modify an arbiter (see Arbiter), so
// sharing it is safe.
func (s *Sim) Clone() *Sim {
	c := &Sim{net: s.net}
	c.CopyFrom(s)
	return c
}

// MsgView is a read-only snapshot of one message's state.
type MsgView struct {
	ID int
	// Spec holds the live values: InjectAt and Length as the simulator
	// holds them, and for an oblivious message the same path copy as Path.
	Spec           MessageSpec
	Injected       int
	Consumed       int
	HeaderConsumed bool
	Delivered      bool
	InNetwork      bool
	Frozen         int
	Held           bool
	Queued         []int // copy
	// Path is the materialized channel sequence (copy): fixed for
	// oblivious messages, the route chosen so far for adaptive ones.
	Path        []topology.ChannelID
	InjectedAt  int // cycle the header entered the network, -1 before
	DeliveredAt int // cycle the tail was consumed, -1 before
}

// Message returns a snapshot of message id.
func (s *Sim) Message(id int) MsgView {
	m := &s.msgs[id]
	spec := s.specs[id]
	spec.InjectAt, spec.Length = m.injectAt, m.length
	path := slices.Clone(s.path(m))
	if !m.adaptive {
		spec.Path = path
	}
	queued := make([]int, m.n)
	for i, q := range s.queue(m) {
		queued[i] = int(q)
	}
	return MsgView{
		ID:             m.id,
		Spec:           spec,
		Injected:       m.injected,
		Consumed:       m.consumed,
		HeaderConsumed: m.headerConsumed,
		Delivered:      m.delivered(),
		InNetwork:      m.inNetwork(),
		Frozen:         m.frozen,
		Held:           m.held,
		Queued:         queued,
		Path:           path,
		InjectedAt:     m.injectedAt,
		DeliveredAt:    m.deliveredAt,
	}
}

// WaitsFor returns the channel message id's header is currently blocked on
// and the blocking owner's message ID. ok is false when the message is not
// blocked (not yet ready, delivered, header consumed, or some wanted
// channel is free). An adaptive message is blocked only when every
// candidate is occupied; the reported channel is then its first candidate
// (Definition 6 is specific to oblivious routing, where the wanted channel
// is unique).
func (s *Sim) WaitsFor(id int) (ch topology.ChannelID, owner int, ok bool) {
	m := &s.msgs[id]
	// A frozen or held message still "waits" in the Definition 6 sense
	// only if its next channel is occupied; compute eligibility manually
	// rather than via wantedChannels (which also filters frozen/held).
	if m.delivered() || m.headerConsumed {
		return 0, -1, false
	}
	var wants []topology.ChannelID
	path := s.path(m)
	if m.injected == 0 {
		if s.now < m.injectAt {
			return 0, -1, false
		}
		if m.adaptive {
			wants = s.adaptiveCandidates(m, s.specs[id].Src, topology.None)
		} else {
			wants = path[:1]
		}
	} else {
		h := m.head
		if h < 0 {
			return 0, -1, false
		}
		if m.adaptive {
			if h != len(path)-1 || s.arrived(m) {
				return 0, -1, false
			}
			in := path[h]
			wants = s.adaptiveCandidates(m, s.net.Channel(in).Dst, in)
		} else {
			if h == len(path)-1 {
				return 0, -1, false
			}
			wants = path[h+1 : h+2]
		}
	}
	if len(wants) == 0 {
		return 0, -1, false
	}
	for _, c := range wants {
		own := s.holder(c)
		if own == -1 || own == id {
			return 0, -1, false
		}
	}
	return wants[0], s.holder(wants[0]), true
}

// CanAdvanceAll sets dst[id] to whether message id could move at least
// one flit this cycle, assuming it wins every arbitration it enters, and
// returns dst, reusing its backing array. One release prediction serves
// every message, and the Contentions call that follows on the same
// configuration. Search code uses it to prune pointless adversarial
// stalls: freezing a message that cannot move is a no-op.
func (s *Sim) CanAdvanceAll(dst []bool) []bool {
	s.predictReleases()
	dst = dst[:0]
	for i := range s.msgs {
		dst = append(dst, s.canAdvance(&s.msgs[i]))
	}
	return dst
}

// acquirable reports whether a header could enter channel c this cycle,
// given the most recent predictReleases pass.
func (s *Sim) acquirable(c topology.ChannelID) bool {
	return s.owner[c] == 0 || s.freeing(c)
}

// canAdvance reports whether m could move a flit this cycle, against the
// most recent predictReleases pass.
func (s *Sim) canAdvance(m *msgState) bool {
	if m.delivered() || m.frozen > 0 {
		return false
	}
	h := m.head
	q, path := s.queue(m), s.path(m)
	last := len(path) - 1
	for i := h; i >= 0; i-- {
		if q[i] == 0 {
			continue
		}
		if i == last {
			if s.arrived(m) {
				return true // consumption always proceeds
			}
			for _, c := range s.wantedChannels(m) {
				if s.acquirable(c) {
					return true
				}
			}
			continue
		}
		next := path[i+1]
		if s.holds(m, next) && int(q[i+1]) < s.cfg.BufferDepth {
			return true
		}
		if i == h && !m.headerConsumed && s.acquirable(next) {
			return true
		}
	}
	if m.injected < m.length && (m.injected > 0 || !m.held) && s.now >= m.injectAt {
		if m.injected == 0 {
			for _, c := range s.wantedChannels(m) {
				if s.acquirable(c) {
					return true
				}
			}
		} else if first := path[0]; s.holds(m, first) && int(q[0]) < s.cfg.BufferDepth {
			return true
		}
	}
	return false
}

// Network returns the simulated network.
func (s *Sim) Network() *topology.Network { return s.net }

// BufferDepth returns the configured per-channel flit capacity.
func (s *Sim) BufferDepth() int { return s.cfg.BufferDepth }
