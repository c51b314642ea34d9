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
// The simulator supports the paper's Section 6 fault model via per-message
// freeze counters (a frozen message does not move even when its output
// channel is free) and via per-channel fault state (a down channel accepts
// no new worm and transfers no flits until its repair cycle, if any; see
// SetChannelDown). It exposes CopyFrom/Clone, EncodeTo/DecodeFrom,
// explicit arbitration picks and adaptive selection masks so the mcheck package can use it as the
// transition function of an exact state-space search, and message-level
// recovery primitives (DropMessage, ResetMessage, SetMessagePath) used by
// the internal/fault recovery policies.
package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obsv"
	"repro/internal/obsv/telemetry"
	"repro/internal/topology"
)

// DownForever is the repair cycle of a permanently failed channel: it never
// becomes usable again.
const DownForever = math.MaxInt

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

// message is the runtime state of one message.
type message struct {
	spec MessageSpec
	id   int
	// path is the materialized channel sequence: a copy of spec.Path for
	// oblivious messages, grown hop by hop as the header acquires
	// channels for adaptive ones.
	path           []topology.ChannelID
	queued         []int // flits currently buffered in each path channel
	injected       int   // flits that have left the source
	consumed       int   // flits consumed at the destination
	headerConsumed bool
	frozen         int  // cycles the message will not move (Section 6 faults)
	held           bool // source withholds injection (assumption 1)
	// mask, when not topology.None, restricts an adaptive message's
	// candidate set to that single channel for the current cycle (cleared
	// after each Step); used by search to enumerate selection choices.
	mask topology.ChannelID

	injectedAt  int // cycle the header entered the network, -1 before
	deliveredAt int // cycle the tail was consumed, -1 before

	// dropped marks a message removed from the network by a recovery
	// policy: it holds no channels, never moves again, and counts as
	// terminal (but not delivered) for Run.
	dropped bool
	// retries counts how many times a recovery policy reset the message
	// back to its source (ResetMessage).
	retries int
}

func (m *message) adaptive() bool { return m.spec.Route != nil }

func (m *message) delivered() bool { return m.consumed == m.spec.Length }

// terminal reports whether the message will never move again by design:
// fully consumed, or removed by a drop recovery.
func (m *message) terminal() bool { return m.delivered() || m.dropped }

func (m *message) inNetwork() bool { return m.injected > m.consumed }

// headIdx returns the largest path index holding flits, or -1.
func (m *message) headIdx() int {
	for i := len(m.queued) - 1; i >= 0; i-- {
		if m.queued[i] > 0 {
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
	// starvation-free per assumption 5.
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
	net   *topology.Network
	cfg   Config
	now   int
	msgs  []message // indexed by message ID; stable addresses only between Adds
	owner []int     // channel -> message id, -1 when free
	// downUntil[c] is the cycle at which channel c becomes usable again:
	// the channel is down while downUntil[c] > now (DownForever = never
	// repaired). A down channel transfers no flits and accepts no header.
	downUntil []int
	// waitingSince[msg] is the cycle the message's header began waiting
	// for its next channel, -1 when not waiting; drives FIFO arbitration.
	waitingSince []int

	// active is the working set the per-cycle machinery iterates: every
	// non-terminal message, plus terminal messages whose freeze counter is
	// still counting down (frozen state is encoded, so the countdown must
	// keep running exactly as it did when every cycle visited every
	// message). Sorted ascending; step compacts out finished entries. It
	// may transiently retain terminal entries between steps (e.g. after
	// DropMessage) — every consumer re-checks message state, so stale
	// entries are harmless and vanish on the next compaction.
	active []int32
	// liveCount counts non-terminal messages and droppedCount dropped
	// ones, so AllTerminal/AllDelivered are O(1) on the Run hot loop.
	liveCount    int
	droppedCount int
	// flitsConsumed counts every flit consumed at a destination since New
	// or Reset. It is monotone — recovery resets discard a message's
	// consumed flits but do not rewind this counter — so the traffic
	// engine can read window deltas for accepted throughput.
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
	// grantEpoch/grantStamp/grantCh record phase-1 arbitration grants,
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
	// Add/SetMessagePath, replacing a per-call map.
	pathSeenEpoch uint64
	pathSeenStamp []uint64
	// pathSlab/queuedSlab are the unused tails of the chunks Add carves
	// new messages' path and queued slices from, so a message costs no
	// allocation of its own; slabChunk is the size of the latest chunk.
	// Carved slices are capacity-limited, so an append past a message's
	// length (an adaptive hop) reallocates instead of writing into a
	// neighbour's slots. Like the arenas, the slabs are never copied.
	pathSlab   []topology.ChannelID
	queuedSlab []int
	slabChunk  int

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
func (s *Sim) freeing(c topology.ChannelID) bool {
	return s.cfg.SameCycleHandoff && s.freeingStamp[c] == s.releaseEpoch
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
// only when a terminal message re-enters the working set (a freeze placed
// on a delivered message, or a retimed/relengthened pooled message coming
// back to life).
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
	owner := make([]int, net.NumChannels())
	for i := range owner {
		owner[i] = -1
	}
	return &Sim{net: net, cfg: cfg, owner: owner, downUntil: make([]int, net.NumChannels())}
}

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
	// Reuse the queued/path backing arrays of a slot parked beyond the
	// length by an earlier Reset, so Add-heavy workloads on a recycled
	// simulator stop allocating per message.
	if cap(s.msgs) > id {
		s.msgs = s.msgs[:id+1]
	} else {
		s.msgs = append(s.msgs, message{})
	}
	m := &s.msgs[id]
	queued, path := m.queued[:0], m.path[:0]
	if n := len(spec.Path); cap(path) < n || cap(queued) < n {
		path, queued = s.carve(n)
	}
	*m = message{
		spec:        spec,
		id:          id,
		mask:        topology.None,
		injectedAt:  -1,
		deliveredAt: -1,
	}
	m.path = append(path, spec.Path...)
	for range spec.Path {
		queued = append(queued, 0)
	}
	m.queued = queued
	s.waitingSince = append(s.waitingSince, -1)
	s.active = append(s.active, int32(id))
	s.liveCount++
	return id, nil
}

// carve cuts empty path and queued slices of capacity n from the slabs,
// starting new chunks of max(64, n, twice the last chunk) when the current
// ones run short, so a simulator fed a few messages stays small and one
// fed a long open-loop run allocates O(log messages) times.
func (s *Sim) carve(n int) ([]topology.ChannelID, []int) {
	if len(s.pathSlab) < n {
		s.slabChunk = max(64, n, 2*s.slabChunk)
		s.pathSlab = make([]topology.ChannelID, s.slabChunk)
		s.queuedSlab = make([]int, s.slabChunk)
	}
	path, queued := s.pathSlab[:0:n], s.queuedSlab[:0:n]
	s.pathSlab, s.queuedSlab = s.pathSlab[n:], s.queuedSlab[n:]
	return path, queued
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

// Tracer returns the attached tracer, nil when tracing is disabled.
func (s *Sim) Tracer() obsv.Tracer { return s.tracer }

// SetTelemetry attaches (or, with nil, detaches) a telemetry collector.
// On every cycle divisible by the collector's stride, Step ends with one
// O(channels + live messages) scan recording per-channel busy/occupancy/
// blocked counts — no allocations, so long load runs sample for free.
// Samples depend only on simulation state, never on wall clock, keeping
// telemetry frames deterministic. Like the tracer, the collector is never
// copied by Clone or CopyFrom.
func (s *Sim) SetTelemetry(c *telemetry.Collector) { s.telemetry = c }

// Telemetry returns the attached collector, nil when sampling is off.
func (s *Sim) Telemetry() *telemetry.Collector { return s.telemetry }

// Now returns the current cycle.
func (s *Sim) Now() int { return s.now }

// NumMessages returns the number of registered messages.
func (s *Sim) NumMessages() int { return len(s.msgs) }

// Owner returns the ID of the message holding channel c, or -1.
func (s *Sim) Owner(c topology.ChannelID) int { return s.owner[c] }

// SetFrozen freezes message id for the next n cycles: it will not move or
// contend for channels even when able (the Section 6 fault model). Calling
// with n = 0 unfreezes.
func (s *Sim) SetFrozen(id, n int) {
	m := &s.msgs[id]
	m.frozen = n
	if n > 0 && m.terminal() {
		// A terminal message may already be compacted out of the active
		// list; the freeze countdown is encoded state, so it must rejoin
		// the working set until the counter drains.
		s.ensureActive(id)
	}
}

// Frozen returns the remaining frozen cycles of message id.
func (s *Sim) Frozen(id int) int { return s.msgs[id].frozen }

// SetChannelDown marks channel c faulty until the given cycle: while
// now < until the channel transfers no flits (in or out, including
// consumption at a destination) and no header may acquire it. Flits already
// buffered in the channel stay in place and the owning message keeps its
// ownership — a fault stalls a worm, it does not corrupt it. Pass
// DownForever for a permanent link failure, or until <= Now() to repair.
func (s *Sim) SetChannelDown(c topology.ChannelID, until int) {
	s.downUntil[c] = until
}

// FailChannel permanently fails channel c (SetChannelDown with DownForever).
func (s *Sim) FailChannel(c topology.ChannelID) { s.SetChannelDown(c, DownForever) }

// RepairChannel returns channel c to service immediately.
func (s *Sim) RepairChannel(c topology.ChannelID) { s.SetChannelDown(c, 0) }

// FailRouter downs every channel incident to node n (incoming and outgoing)
// until the given cycle, modeling a router failure that severs the whole
// switch rather than a single link.
func (s *Sim) FailRouter(n topology.NodeID, until int) {
	for _, c := range s.net.Out(n) {
		s.SetChannelDown(c, until)
	}
	for _, c := range s.net.In(n) {
		s.SetChannelDown(c, until)
	}
}

// ChannelDown reports whether channel c is currently faulty.
func (s *Sim) ChannelDown(c topology.ChannelID) bool { return s.downUntil[c] > s.now }

// DownUntil returns the cycle channel c repairs at (DownForever when the
// failure is permanent); values <= Now() mean the channel is in service.
func (s *Sim) DownUntil(c topology.ChannelID) int { return s.downUntil[c] }

// down is ChannelDown on the hot path.
func (s *Sim) down(c topology.ChannelID) bool { return s.downUntil[c] > s.now }

// DropMessage removes message id from the network for good: every channel
// it holds is released, buffered flits are discarded, and the message is
// marked dropped — a terminal state Run counts separately from delivery.
// Dropping a delivered message is a no-op.
func (s *Sim) DropMessage(id int) {
	m := &s.msgs[id]
	if m.delivered() || m.dropped {
		return
	}
	s.clearFromNetwork(m)
	m.dropped = true
	s.liveCount--
	s.droppedCount++
	s.waitingSince[id] = -1
}

// ResetMessage aborts message id and re-arms its source: held channels are
// released, buffered and consumed flits are discarded, and the source will
// attempt to inject the whole message again from cycle reinjectAt. The
// message's retry counter increments. Adaptive messages forget their
// materialized route and re-route from scratch. Resetting a delivered or
// dropped message is a no-op.
func (s *Sim) ResetMessage(id, reinjectAt int) {
	m := &s.msgs[id]
	if m.terminal() {
		return
	}
	s.clearFromNetwork(m)
	if reinjectAt < 0 {
		reinjectAt = 0
	}
	m.spec.InjectAt = reinjectAt
	m.retries++
	s.waitingSince[id] = -1
}

// SetMessagePath replaces the path of an oblivious message that is not in
// the network (never injected, or just reset). The recovery layer uses it
// to re-route a message around failed channels.
func (s *Sim) SetMessagePath(id int, path []topology.ChannelID) error {
	m := &s.msgs[id]
	if m.adaptive() {
		return fmt.Errorf("sim: SetMessagePath(%d): message routes adaptively", id)
	}
	if m.injected > 0 && !m.terminal() {
		return fmt.Errorf("sim: SetMessagePath(%d): message is in the network", id)
	}
	if len(path) == 0 {
		return fmt.Errorf("sim: SetMessagePath(%d): empty path", id)
	}
	if !s.net.IsPath(m.spec.Src, m.spec.Dst, path) {
		return fmt.Errorf("sim: SetMessagePath(%d): %v is not a contiguous %d -> %d path",
			id, path, m.spec.Src, m.spec.Dst)
	}
	if dup, ok := s.pathDuplicate(path); ok {
		return fmt.Errorf("sim: SetMessagePath(%d): path uses channel %d twice", id, dup)
	}
	// spec.Path may be shared with clones of this sim (Clone copies the
	// spec by value), so it gets a fresh array; the materialized path and
	// queue are owned per sim and reuse their backing.
	m.spec.Path = append([]topology.ChannelID(nil), path...)
	m.path = append(m.path[:0], path...)
	m.queued = m.queued[:0]
	for range path {
		m.queued = append(m.queued, 0)
	}
	return nil
}

// Retries returns how many times message id was reset by recovery.
func (s *Sim) Retries(id int) int { return s.msgs[id].retries }

// Dropped reports whether message id was removed by a drop recovery.
func (s *Sim) Dropped(id int) bool { return s.msgs[id].dropped }

// clearFromNetwork releases every channel message m owns and zeroes its
// in-flight state, as if the worm had never entered the network.
func (s *Sim) clearFromNetwork(m *message) {
	for _, c := range m.path {
		if s.owner[c] == m.id {
			if s.tracer != nil {
				ev := obsv.Ev(obsv.KindRelease, s.now)
				ev.Msg = m.id
				ev.Ch = c
				s.tracer.Event(ev)
			}
			s.owner[c] = -1
		}
	}
	if m.adaptive() {
		m.path = nil
		m.queued = nil
	} else {
		for i := range m.queued {
			m.queued[i] = 0
		}
	}
	m.injected = 0
	m.consumed = 0
	m.headerConsumed = false
	m.injectedAt = -1
	m.deliveredAt = -1
	m.mask = topology.None
}

// SetHeld controls source-side injection: a held message's source does not
// attempt injection regardless of InjectAt. Holding a message that has
// already begun injecting has no effect. Model checkers use this to
// realize assumption 1's "any injection time".
func (s *Sim) SetHeld(id int, held bool) { s.msgs[id].held = held }

// SetMask restricts an adaptive message to request only the given channel
// during the next Step; the mask clears when the step completes. Model
// checkers use it to enumerate adaptive selection nondeterminism: the
// masked channel must be one of the message's current candidates (this is
// the caller's responsibility — a stale mask simply blocks the message for
// one cycle). Pass topology.None to clear. Masks on oblivious messages are
// ignored.
func (s *Sim) SetMask(id int, c topology.ChannelID) { s.msgs[id].mask = c }

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
		if s.owner[c] == -1 || s.freeing(c) {
			out = append(out, c)
		}
	}
	return out
}

// IsAdaptive reports whether message id routes adaptively.
func (s *Sim) IsAdaptive(id int) bool { return s.msgs[id].adaptive() }

// Contentions returns this cycle's channel-acquisition choice points: every
// acquirable channel (free now, or — with same-cycle handoff — freed by a
// departing tail this cycle) that two or more eligible headers request
// simultaneously. Channels requested by a single header are not included
// (no choice).
func (s *Sim) Contentions() []Contention {
	s.predictReleases()
	reqs := s.collectRequests(s.queryReqs)
	s.queryReqs = reqs[:0]
	var out []Contention
	for i := 0; i < len(reqs); {
		c := topology.ChannelID(reqs[i] >> 32)
		j := i
		for j < len(reqs) && topology.ChannelID(reqs[j]>>32) == c {
			j++
		}
		if j-i > 1 {
			ids := make([]int, 0, j-i)
			for k := i; k < j; k++ {
				ids = append(ids, int(uint32(reqs[k])))
			}
			out = append(out, Contention{Channel: c, Contenders: ids})
		}
		i = j
	}
	return out
}

// collectRequests appends this cycle's acquisition requests to buf as
// packed (channel<<32 | message) pairs and sorts them: channels come out
// in ascending ID order, each with its contenders ascending — the exact
// order the old per-cycle request map produced after its two sorts. A
// channel is requestable when it is free, or when the most recent
// predictReleases pass marked it releasing (same-cycle handoff). Adaptive
// messages may request several channels at once; grant resolution ensures
// each message wins at most one.
func (s *Sim) collectRequests(buf []uint64) []uint64 {
	reqs := buf[:0]
	for _, id := range s.active {
		m := &s.msgs[id]
		for _, c := range s.wantedChannels(m) {
			if s.owner[c] == -1 || s.freeing(c) {
				reqs = append(reqs, uint64(c)<<32|uint64(uint32(m.id)))
			}
		}
	}
	slices.Sort(reqs)
	return reqs
}

// arrived reports whether the message's materialized path already ends at
// its destination (always true for oblivious messages at the last index).
func (s *Sim) arrived(m *message) bool {
	if !m.adaptive() {
		return true
	}
	n := len(m.path)
	return n > 0 && s.net.Channel(m.path[n-1]).Dst == m.spec.Dst
}

// predictReleases stamps the channels whose owner's tail will depart this
// cycle into the freeingStamp arena under a fresh releaseEpoch (query the
// result with freeing). The owner's own header acquisition is predicted
// optimistically (it moves whenever its next channel is free at the start
// of the cycle); if the owner then loses that arbitration the release does
// not happen, and the acquisition guard in moveMessage makes the granted
// waiter simply stall one more cycle. In strict-handoff mode it only
// advances the epoch, leaving every channel unmarked.
func (s *Sim) predictReleases() {
	s.releaseEpoch++
	if !s.cfg.SameCycleHandoff {
		return
	}
	s.ensureChannelStamps()
	for _, id := range s.active {
		m := &s.msgs[id]
		if m.terminal() || m.frozen > 0 || m.injected < m.spec.Length {
			continue
		}
		low := -1
		for i, q := range m.queued {
			if q > 0 {
				low = i
				break
			}
		}
		if low < 0 || m.queued[low] != 1 {
			continue
		}
		// Walk the worm front to back, computing whether one flit departs
		// each occupied channel this cycle (mirrors the movement pass).
		h := m.headIdx()
		last := len(m.path) - 1
		departs := s.departsBuf
		if cap(departs) < h+1 {
			departs = make([]bool, h+1)
			s.departsBuf = departs
		} else {
			departs = departs[:h+1]
		}
		for i := range departs {
			departs[i] = false
		}
		for i := h; i >= low; i-- {
			if m.queued[i] == 0 {
				continue
			}
			if s.down(m.path[i]) {
				continue // no flit leaves a dead channel
			}
			if i == last {
				if s.arrived(m) {
					departs[i] = true // consumption never blocks
					continue
				}
				// Adaptive frontier: optimistically departs when any
				// candidate channel is free at the start of the cycle.
				for _, c := range s.wantedChannels(m) {
					if s.owner[c] == -1 {
						departs[i] = true
						break
					}
				}
				continue
			}
			next := m.path[i+1]
			if s.down(next) {
				continue // no flit enters a dead channel
			}
			if s.owner[next] != m.id {
				// Header acquisition: optimistically moves when the
				// channel is free at the start of the cycle.
				departs[i] = i == h && !m.headerConsumed && s.owner[next] == -1
				continue
			}
			free := s.cfg.BufferDepth - m.queued[i+1]
			if i+1 <= h && departs[i+1] {
				free++
			}
			departs[i] = free > 0
		}
		if departs[low] {
			s.freeingStamp[m.path[low]] = s.releaseEpoch
		}
	}
}

// wantedChannels returns the channels the message's header may acquire
// next, if the message is eligible to request one this cycle (not
// delivered or dropped, not frozen, header not consumed, and — for
// injection — ready and not held). Oblivious messages want exactly their
// next path channel; adaptive messages want every usable candidate their
// route function offers. Down channels are never wanted: a faulty link
// accepts no header, and a header sitting in a down channel cannot leave
// it.
func (s *Sim) wantedChannels(m *message) []topology.ChannelID {
	if m.terminal() || m.frozen > 0 || m.headerConsumed {
		return nil
	}
	var at topology.NodeID
	in := topology.None
	if m.injected == 0 {
		if m.held || s.now < m.spec.InjectAt {
			return nil
		}
		if !m.adaptive() {
			if s.down(m.path[0]) {
				return nil
			}
			return m.path[:1]
		}
		at = m.spec.Src
	} else {
		h := m.headIdx()
		if h < 0 {
			return nil
		}
		if s.down(m.path[h]) {
			return nil // the header cannot exit a dead channel
		}
		if !m.adaptive() {
			if h == len(m.path)-1 {
				return nil // header at the destination channel: consumption
			}
			if s.down(m.path[h+1]) {
				return nil
			}
			return m.path[h+1 : h+2]
		}
		// An adaptive header is always at the end of the materialized
		// path.
		if h != len(m.path)-1 || s.arrived(m) {
			return nil
		}
		in = m.path[h]
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
func (s *Sim) adaptiveCandidates(m *message, at topology.NodeID, in topology.ChannelID) []topology.ChannelID {
	raw := m.spec.Route(at, in, m.spec.Dst)
	out := s.wantBuf[:0]
	for _, c := range raw {
		if c < 0 || int(c) >= s.net.NumChannels() || s.net.Channel(c).Src != at {
			continue
		}
		if s.down(c) {
			continue // adaptive routing masks faulty candidates
		}
		if m.mask != topology.None && c != m.mask {
			continue
		}
		used := false
		for _, p := range m.path {
			if p == c {
				used = true
				break
			}
		}
		if !used {
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

func (s *Sim) step(picks map[topology.ChannelID]int) StepResult {
	// Phase 1: arbitration. In strict mode the snapshot is start-of-cycle
	// ownership; with same-cycle handoff, channels releasing this cycle
	// are acquirable too. All working memory comes from the Sim's scratch
	// arenas: a steady-state step allocates nothing.
	s.ensureGrantArena()
	s.grantEpoch++
	s.predictReleases()
	reqs := s.collectRequests(s.stepReqs)
	s.stepReqs = reqs[:0]
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
	// Terminal messages outside the active list keep waitingSince == -1:
	// it was reset on the cycle their header reached the destination
	// (wantedChannels was already empty) and nothing sets it afterwards.
	for _, id := range s.active {
		m := &s.msgs[id]
		if wants := s.wantedChannels(m); len(wants) > 0 {
			if _, won := s.granted(m.id); !won {
				if s.waitingSince[m.id] < 0 {
					s.waitingSince[m.id] = s.now
				}
				continue
			}
		}
		s.waitingSince[m.id] = -1
	}

	// Phase 2: movement, per message, front slot to back slot. In strict
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
		if c, won := s.granted(int(id)); won && s.freeing(c) {
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
	// active-list compaction: a terminal message leaves the working set
	// once its freeze counter (encoded state) has drained.
	for _, c := range s.releases {
		// A release entry is only created when the owning message's tail
		// left the channel; the owner cannot have changed within the cycle
		// because acquisitions were arbitrated against the snapshot, which
		// showed the channel owned.
		s.owner[c] = -1
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
		if !m.terminal() || m.frozen > 0 {
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
		if own >= 0 {
			busy[c]++
			if s.waitingSince[own] >= 0 {
				blocked[c]++
			}
		}
	}
	for _, id := range s.active {
		m := &s.msgs[id]
		for i, q := range m.queued {
			if q > 0 {
				occ[m.path[i]] += uint32(q)
			}
		}
		if s.waitingSince[id] >= 0 {
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
		ev.Msg = s.owner[c]
		ev.Ch = c
		s.tracer.Event(ev)
	}
	if s.cfg.SameCycleHandoff {
		s.owner[c] = -1
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
func (s *Sim) moveMessage(m *message) bool {
	if m.terminal() || m.frozen > 0 {
		return false
	}
	moved := false
	h := m.headIdx()
	last := len(m.path) - 1
	for i := h; i >= 0; i-- {
		if m.queued[i] == 0 {
			continue
		}
		if s.down(m.path[i]) {
			continue // a dead channel transfers nothing, not even to a sink
		}
		if i == last {
			if s.arrived(m) {
				// One flit per cycle into the destination's sink.
				m.queued[i]--
				m.consumed++
				m.headerConsumed = true
				s.flitsConsumed++
				moved = true
				if s.tracer != nil {
					ev := obsv.Ev(obsv.KindConsume, s.now)
					ev.Msg = m.id
					ev.Ch = m.path[i]
					s.tracer.Event(ev)
				}
				if m.queued[i] == 0 && s.noTailBehind(m, i) {
					s.release(m.path[i])
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
			// extend it with the granted candidate, if any is free.
			if i == h && !m.headerConsumed {
				if c, won := s.granted(m.id); won && s.owner[c] == -1 {
					s.acquire(m, i, c)
					moved = true
				}
			}
			continue
		}
		next := m.path[i+1]
		if s.owner[next] == m.id {
			if m.queued[i+1] < s.cfg.BufferDepth && !s.down(next) {
				m.queued[i]--
				m.queued[i+1]++
				moved = true
				if s.tracer != nil {
					ev := obsv.Ev(obsv.KindFlit, s.now)
					ev.Msg = m.id
					ev.Ch = next
					s.tracer.Event(ev)
				}
				if m.queued[i] == 0 && s.noTailBehind(m, i) {
					s.release(m.path[i])
				}
			}
			continue
		}
		// Oblivious header acquisition of its fixed next channel.
		if i == h && !m.headerConsumed && s.owner[next] == -1 {
			if c, won := s.granted(m.id); won && c == next {
				s.acquire(m, i, c)
				moved = true
			}
		}
	}
	// Injection: source -> path[0].
	if m.injected < m.spec.Length && !m.held && s.now >= m.spec.InjectAt {
		if m.injected == 0 {
			if c, won := s.granted(m.id); won && s.owner[c] == -1 {
				if !m.adaptive() && c != m.path[0] {
					panic("sim: oblivious message granted a foreign channel")
				}
				s.owner[c] = m.id
				if m.adaptive() {
					m.path = append(m.path, c)
					m.queued = append(m.queued, 0)
				}
				m.queued[0]++
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
		} else if first := m.path[0]; s.owner[first] == m.id && m.queued[0] < s.cfg.BufferDepth && !s.down(first) {
			m.queued[0]++
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
// already exists).
func (s *Sim) acquire(m *message, i int, c topology.ChannelID) {
	s.owner[c] = m.id
	if s.tracer != nil {
		ev := obsv.Ev(obsv.KindAcquire, s.now)
		ev.Msg = m.id
		ev.Ch = c
		s.tracer.Event(ev)
	}
	if m.adaptive() {
		m.path = append(m.path, c)
		m.queued = append(m.queued, 0)
	}
	if i >= 0 {
		m.queued[i]--
	}
	m.queued[i+1]++
	if i >= 0 && m.queued[i] == 0 && s.noTailBehind(m, i) {
		s.release(m.path[i])
	}
}

// noTailBehind reports whether none of this message's flits sit strictly
// behind path index i (at the source or buffered in an earlier channel) —
// the release condition for channel i once its buffer empties. While the
// source still holds flits it is O(1), and the scan exits at the first
// occupied slot, so the hot loop never pays a full prefix sum.
func (s *Sim) noTailBehind(m *message, i int) bool {
	if m.injected < m.spec.Length {
		return false
	}
	for j := 0; j < i; j++ {
		if m.queued[j] != 0 {
			return false
		}
	}
	return true
}

// AllDelivered reports whether every message has been fully consumed.
func (s *Sim) AllDelivered() bool {
	return s.liveCount == 0 && s.droppedCount == 0
}

// AllTerminal reports whether every message reached a terminal state:
// delivered, or dropped by a recovery policy.
func (s *Sim) AllTerminal() bool { return s.liveCount == 0 }

// LiveMessages returns the number of messages not yet delivered or
// dropped. The traffic engine polls it instead of scanning every message.
func (s *Sim) LiveMessages() int { return s.liveCount }

// FlitsConsumed returns the total number of flits consumed at
// destinations since New or Reset. The counter is monotone: recovery
// resets discard a message's consumed flits but do not rewind it, so
// window deltas measure accepted throughput.
func (s *Sim) FlitsConsumed() int64 { return s.flitsConsumed }

// quiescent reports whether the state can never change again without
// external intervention: nothing moved last cycle, no message is frozen,
// none is held, no injection lies in the future, and no faulted channel is
// scheduled to repair (a pending repair can unblock a stalled worm; a
// permanent failure cannot). In a quiescent state with undelivered
// messages the network is deadlocked.
func (s *Sim) quiescent() bool {
	if s.lastMoved || s.lastThawed {
		return false
	}
	for _, id := range s.active {
		m := &s.msgs[id]
		if m.terminal() {
			continue
		}
		if m.frozen > 0 || m.held || s.now <= m.spec.InjectAt {
			return false
		}
	}
	for _, until := range s.downUntil {
		if until > s.now && until != DownForever {
			return false
		}
	}
	return true
}

// Quiescent reports whether the simulation provably cannot move again
// without external intervention (see quiescent); with undelivered,
// undropped messages present this is an exact deadlock certificate. The
// fault-recovery watchdog uses it as its exact detection mode.
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
	// ResultDegraded: every message reached a terminal state, but some
	// were dropped by a recovery policy rather than delivered.
	ResultDegraded
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
	case ResultDegraded:
		return "degraded"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Outcome is the final report of Run.
type Outcome struct {
	Result      Result
	Cycles      int   // cycles executed
	Undelivered []int // message IDs not delivered (deadlock/timeout)
	Dropped     []int // message IDs removed by a drop recovery
}

// Run steps the simulation until every message is delivered or dropped,
// the network deadlocks (a provably stable non-empty state), or maxCycles
// elapse. Deadlock detection is exact, not timeout-based: the transition
// function is deterministic once injections are due, freezes expired and
// channel repairs done, so a cycle with no movement proves no movement can
// ever happen.
func (s *Sim) Run(maxCycles int) Outcome {
	for c := 0; c < maxCycles; c++ {
		if s.AllTerminal() {
			return s.finishRun(s.terminalOutcome())
		}
		s.Step()
		if !s.lastMoved && s.quiescent() {
			if s.AllTerminal() {
				return s.finishRun(s.terminalOutcome())
			}
			return s.finishRun(Outcome{Result: ResultDeadlock, Cycles: s.now, Undelivered: s.undelivered(), Dropped: s.droppedIDs()})
		}
	}
	if s.AllTerminal() {
		return s.finishRun(s.terminalOutcome())
	}
	return s.finishRun(Outcome{Result: ResultTimeout, Cycles: s.now, Undelivered: s.undelivered(), Dropped: s.droppedIDs()})
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

// terminalOutcome classifies an all-terminal state: delivered when every
// message arrived, degraded when drops were needed.
func (s *Sim) terminalOutcome() Outcome {
	dropped := s.droppedIDs()
	if len(dropped) == 0 {
		return Outcome{Result: ResultDelivered, Cycles: s.now}
	}
	return Outcome{Result: ResultDegraded, Cycles: s.now, Dropped: dropped}
}

func (s *Sim) undelivered() []int {
	var ids []int
	for i := range s.msgs {
		if !s.msgs[i].terminal() {
			ids = append(ids, i)
		}
	}
	return ids
}

func (s *Sim) droppedIDs() []int {
	var ids []int
	for i := range s.msgs {
		if s.msgs[i].dropped {
			ids = append(ids, i)
		}
	}
	return ids
}

// Clone returns a deep copy sharing only the immutable network and message
// specs. Arbiters that implement ArbiterCloner are deep-copied so each
// clone carries its own arbiter state; any other arbiter value is shared,
// which is only safe for stateless arbiters (all built-ins qualify and are
// marked StatelessArbiter). The search engines in internal/mcheck enforce
// this: they reject arbiters that implement neither interface.
func (s *Sim) Clone() *Sim {
	c := &Sim{net: s.net}
	c.CopyFrom(s)
	return c
}

// MsgView is a read-only snapshot of one message's state.
type MsgView struct {
	ID             int
	Spec           MessageSpec
	Injected       int
	Consumed       int
	HeaderConsumed bool
	Delivered      bool
	InNetwork      bool
	Frozen         int
	Held           bool
	Dropped        bool  // removed by a drop recovery
	Retries        int   // times recovery reset the message to its source
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
	return MsgView{
		ID:             m.id,
		Spec:           m.spec,
		Injected:       m.injected,
		Consumed:       m.consumed,
		HeaderConsumed: m.headerConsumed,
		Delivered:      m.delivered(),
		InNetwork:      m.inNetwork(),
		Frozen:         m.frozen,
		Held:           m.held,
		Dropped:        m.dropped,
		Retries:        m.retries,
		Queued:         append([]int(nil), m.queued...),
		Path:           append([]topology.ChannelID(nil), m.path...),
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
	if m.terminal() || m.headerConsumed {
		return 0, -1, false
	}
	var wants []topology.ChannelID
	if m.injected == 0 {
		if s.now < m.spec.InjectAt {
			return 0, -1, false
		}
		if m.adaptive() {
			wants = s.adaptiveCandidates(m, m.spec.Src, topology.None)
		} else {
			wants = m.path[:1]
		}
	} else {
		h := m.headIdx()
		if h < 0 {
			return 0, -1, false
		}
		if m.adaptive() {
			if h != len(m.path)-1 || s.arrived(m) {
				return 0, -1, false
			}
			in := m.path[h]
			wants = s.adaptiveCandidates(m, s.net.Channel(in).Dst, in)
		} else {
			if h == len(m.path)-1 {
				return 0, -1, false
			}
			wants = m.path[h+1 : h+2]
		}
	}
	if len(wants) == 0 {
		return 0, -1, false
	}
	for _, c := range wants {
		own := s.owner[c]
		if own == -1 || own == id {
			return 0, -1, false
		}
	}
	return wants[0], s.owner[wants[0]], true
}

// CanAdvance reports whether message id could move at least one flit this
// cycle, assuming it wins every arbitration it enters. Search code uses it
// to prune pointless adversarial stalls: freezing a message that cannot
// move is a no-op.
func (s *Sim) CanAdvance(id int) bool {
	m := &s.msgs[id]
	if m.terminal() || m.frozen > 0 {
		return false
	}
	s.predictReleases()
	acquirable := func(c topology.ChannelID) bool {
		return (s.owner[c] == -1 || s.freeing(c)) && !s.down(c)
	}
	h := m.headIdx()
	last := len(m.path) - 1
	for i := h; i >= 0; i-- {
		if m.queued[i] == 0 {
			continue
		}
		if s.down(m.path[i]) {
			continue
		}
		if i == last {
			if s.arrived(m) {
				return true // consumption always proceeds
			}
			for _, c := range s.wantedChannels(m) {
				if acquirable(c) {
					return true
				}
			}
			continue
		}
		next := m.path[i+1]
		if s.owner[next] == m.id && m.queued[i+1] < s.cfg.BufferDepth && !s.down(next) {
			return true
		}
		if i == h && !m.headerConsumed && acquirable(next) {
			return true
		}
	}
	if m.injected < m.spec.Length && !m.held && s.now >= m.spec.InjectAt {
		if m.injected == 0 {
			for _, c := range s.wantedChannels(m) {
				if acquirable(c) {
					return true
				}
			}
		} else if first := m.path[0]; s.owner[first] == m.id && m.queued[0] < s.cfg.BufferDepth && !s.down(first) {
			return true
		}
	}
	return false
}

// FaultBlocked reports whether message id is currently prevented from
// moving specifically by channel fault state, and if so the earliest cycle
// at which a scheduled repair could let it move again (DownForever when
// every blocking channel is permanently failed). A message that can still
// advance, or that is blocked purely by other messages, reports false. The
// fault-recovery watchdog uses this to excuse stalls that a pending repair
// will resolve and to intervene immediately on dead-path starvation.
func (s *Sim) FaultBlocked(id int) (repairAt int, blocked bool) {
	m := &s.msgs[id]
	if m.terminal() || m.frozen > 0 || s.CanAdvance(id) {
		return 0, false
	}
	// For each movement the message could make if the involved channels
	// were live, the move unblocks at the max repair cycle of its down
	// channels; the message unblocks at the min over moves.
	earliest := DownForever
	found := false
	consider := func(chans ...topology.ChannelID) {
		at := 0
		involved := false
		for _, c := range chans {
			if s.down(c) {
				involved = true
				if s.downUntil[c] > at {
					at = s.downUntil[c]
				}
			}
		}
		if involved && at < earliest {
			earliest = at
			found = true
		}
	}
	h := m.headIdx()
	last := len(m.path) - 1
	for i := h; i >= 0; i-- {
		if m.queued[i] == 0 {
			continue
		}
		if i == last {
			if s.arrived(m) {
				consider(m.path[i]) // consumption blocked by the dead last hop
			} else if i == h && !m.headerConsumed && m.adaptive() {
				// Frontier: any free-but-down candidate would do.
				raw := m.spec.Route(s.net.Channel(m.path[h]).Dst, m.path[h], m.spec.Dst)
				for _, c := range raw {
					if c < 0 || int(c) >= s.net.NumChannels() || s.net.Channel(c).Src != s.net.Channel(m.path[h]).Dst {
						continue
					}
					if s.owner[c] == -1 {
						consider(m.path[i], c)
					}
				}
			}
			continue
		}
		next := m.path[i+1]
		if s.owner[next] == m.id {
			if m.queued[i+1] < s.cfg.BufferDepth {
				consider(m.path[i], next)
			}
			continue
		}
		if i == h && !m.headerConsumed && s.owner[next] == -1 {
			consider(m.path[i], next)
		}
	}
	if m.injected < m.spec.Length && !m.held && s.now >= m.spec.InjectAt {
		if m.injected == 0 {
			if !m.adaptive() {
				if s.owner[m.path[0]] == -1 {
					consider(m.path[0])
				}
			} else {
				raw := m.spec.Route(m.spec.Src, topology.None, m.spec.Dst)
				for _, c := range raw {
					if c < 0 || int(c) >= s.net.NumChannels() || s.net.Channel(c).Src != m.spec.Src {
						continue
					}
					if s.owner[c] == -1 {
						consider(c)
					}
				}
			}
		} else if s.owner[m.path[0]] == m.id && m.queued[0] < s.cfg.BufferDepth {
			consider(m.path[0])
		}
	}
	if !found {
		return 0, false
	}
	return earliest, true
}

// Network returns the simulated network.
func (s *Sim) Network() *topology.Network { return s.net }

// BufferDepth returns the configured per-channel flit capacity.
func (s *Sim) BufferDepth() int { return s.cfg.BufferDepth }
