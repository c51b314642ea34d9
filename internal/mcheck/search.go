// Package mcheck decides deadlock reachability for finite wormhole-routing
// scenarios by exhaustive search.
//
// Search is an exact breadth-first state-space exploration of the
// simulator's transition system under full adversarial nondeterminism:
// sources may delay injection arbitrarily (assumption 1), every
// arbitration choice is enumerated (assumption 5), and an optional stall
// budget lets the adversary freeze moving messages (Section 6's relaxation
// of tight synchrony). For a fixed finite message set this is a complete
// decision procedure: VerdictNoDeadlock means no reachable state of the
// scenario contains a Definition 6 deadlock configuration.
//
// A deadlock verdict always carries a witness: the decision trace plus the
// Definition 6 cycle, and Replay re-executes traces so tests can validate
// witnesses independently.
//
// Search is parallel but exactly deterministic: frontier expansion — the
// expensive part, cloning and stepping the simulator once per decision —
// fans out across a worker pool level by level, while all bookkeeping that
// the verdict depends on (visited insertion, state counting, provenance,
// deadlock detection order) happens in a single-threaded merge that
// processes the level in the same order a sequential FIFO queue would.
// Verdicts, state counts and witness traces are therefore byte-identical
// across any worker count, including 1.
//
// SearchLiveness runs on the same engine: one breadth-first search, one
// expansion path and one reporter (report.go) — trace events, the
// mcheck_* gauges a live reader scrapes, and the result's timing,
// visited-set and reduction figures.
package mcheck

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/waitfor"
)

// Verdict classifies a search outcome.
type Verdict int

const (
	// VerdictNoDeadlock: the full reachable state space was explored and
	// no Definition 6 deadlock configuration exists.
	VerdictNoDeadlock Verdict = iota
	// VerdictDeadlock: a reachable deadlock was found; see the witness.
	VerdictDeadlock
	// VerdictExhausted: the state or run budget was exceeded before the
	// search completed; the result is inconclusive.
	VerdictExhausted
	// VerdictLocalDeadlock: a reachable state contains a permanent
	// Definition 6 cycle while traffic outside the blocked subnetwork can
	// still be delivered — a local deadlock in the sense of Stramaglia,
	// Keiren & Zantema. Reported only by SearchLiveness; Search folds
	// these into VerdictDeadlock.
	VerdictLocalDeadlock
	// VerdictLivelock: SearchLiveness found a reachable cycle of states
	// along which some in-flight message never advances — a lasso; see
	// SearchResult.Lasso for the replayable witness.
	VerdictLivelock
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictNoDeadlock:
		return "no-deadlock"
	case VerdictDeadlock:
		return "deadlock"
	case VerdictExhausted:
		return "exhausted"
	case VerdictLocalDeadlock:
		return "local-deadlock"
	case VerdictLivelock:
		return "livelock"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Decision is one cycle's worth of adversarial choices in a Search trace.
type Decision struct {
	// Activate lists messages whose source begins injecting this cycle.
	Activate []int
	// Freeze lists in-flight messages stalled for this one cycle, each
	// consuming one unit of the stall budget.
	Freeze []int
	// Masks restricts adaptive messages to a single candidate channel for
	// this cycle (adaptive selection nondeterminism), ascending by
	// message.
	Masks Masks
	// Picks resolves each contested channel acquisition, ascending by
	// channel: the order of the state's sim.Contentions, one contender
	// chosen per contention.
	Picks Picks
}

// Mask restricts adaptive message Msg to request only Channel this cycle
// (sim.SetMask).
type Mask struct {
	Msg     int
	Channel topology.ChannelID
}

// Masks is a decision's adaptive selections, ascending by message.
type Masks []Mask

// Picks is a decision's arbitration picks, ascending by channel.
type Picks []sim.Pick

// String prints the selections as map[msg:channel ...]: the form in
// which printed witnesses, and the digests taken of them, have always
// shown a decision's masks.
func (ms Masks) String() string {
	return pairString(len(ms), func(i int) (int, int) { return ms[i].Msg, int(ms[i].Channel) })
}

// String prints the picks as map[channel:msg ...], the same way.
func (ps Picks) String() string {
	return pairString(len(ps), func(i int) (int, int) { return int(ps[i].Channel), ps[i].Msg })
}

// pairString renders n key:value pairs the way fmt prints a map.
func pairString(n int, pair func(i int) (int, int)) string {
	b := []byte("map[")
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		k, v := pair(i)
		b = fmt.Appendf(b, "%d:%d", k, v)
	}
	return string(append(b, ']'))
}

// SearchOptions bounds a Search.
type SearchOptions struct {
	// StallBudget is the total number of message-cycles the adversary may
	// freeze otherwise-movable messages (0 = routers never stall, the
	// paper's Section 3 model; > 0 = Section 6's clock-skew model). A
	// negative budget panics.
	StallBudget int
	// MaxStates caps the number of distinct states explored. 0 means
	// DefaultMaxStates.
	MaxStates int
	// FreezeInTransitOnly restricts adversarial stalls to messages whose
	// header has not yet reached its destination channel. This models the
	// paper's Section 6 clock-skew adversary, where routers may delay a
	// message in transit but destination processors consume arriving
	// flits promptly. Without it, stalls may also delay consumption
	// (legal under assumption 2's "eventually consumed", but outside the
	// paper's skew model).
	FreezeInTransitOnly bool
	// Parallelism is the number of frontier-expansion workers. 0 means
	// GOMAXPROCS. The result is identical for every value; only wall
	// time changes.
	Parallelism int
	// Visited configures the visited set: every encoding resident
	// (default) or the disk-spilling out-of-core mode. Both are exact;
	// verdicts, state counts and witnesses do not depend on the choice.
	Visited VisitedConfig
	// Reduction selects verdict-preserving state-space reductions
	// (partial-order and/or symmetry). The zero value explores the full
	// unreduced space, byte-identical to the engine without reductions;
	// with reductions enabled the verdict and the validity of any
	// deadlock witness are unchanged, but state counts, traces and
	// witness details may differ from the unreduced run. Reductions
	// whose soundness gating the scenario fails are silently cleared;
	// SearchResult.Reduction reports what actually ran.
	Reduction Reduction

	// Tracer, when set, receives one obsv.KindSearchLevel event per BFS
	// level and a final obsv.KindSearchDone. Events are emitted from the
	// single-threaded merge and carry only logical quantities (level,
	// frontier size, state count), so the traced sequence is identical
	// across Parallelism values. Nil disables search tracing at the cost
	// of one branch per level.
	Tracer obsv.Tracer
	// Metrics, when set, receives live search gauges on every BFS level
	// (level, frontier size, peak frontier, states and visited bytes, plus
	// the spill gauges with the spill backend) and, at the end, the final
	// state count, peak visited, workers and visited figures, plus the
	// reduction gauges when a reduction ran. The registry is the search's
	// only live channel: /metrics and -progress read these gauges. The
	// search is the only writer of these mcheck_* gauges:
	// obsv.MetricsSink ignores search events.
	Metrics *obsv.Registry
}

// DefaultMaxStates bounds state exploration when SearchOptions.MaxStates
// is zero.
const DefaultMaxStates = 2_000_000

// SearchResult reports the outcome of Search.
type SearchResult struct {
	Verdict Verdict
	// States is the number of distinct states visited.
	States int
	// Trace, for VerdictDeadlock, is the per-cycle decision sequence from
	// the empty network to the deadlocked state.
	Trace []Decision
	// Deadlock, for VerdictDeadlock, is the Definition 6 cycle in the
	// final state.
	Deadlock *waitfor.Deadlock
	// Local, for VerdictLocalDeadlock, is the blocked-subnetwork witness
	// (the cycle, the channels it kills, and the surviving traffic).
	Local *waitfor.LocalDeadlock
	// Lasso, for VerdictLivelock, is the replayable stem+loop witness.
	Lasso *Lasso

	// Elapsed is the wall time the search took.
	Elapsed time.Duration
	// StatesPerSec is States / Elapsed, the headline throughput figure.
	StatesPerSec float64
	// PeakVisited is the number of distinct state encodings retained by
	// the deduplication structure when the search ended (its memory high
	// water mark, one entry per encoding).
	PeakVisited int
	// Visited is the visited-set backend's final accounting snapshot:
	// which backend ran, resident bytes, per-shard high-water mark, and
	// the spill counters where applicable.
	Visited VisitedStats
	// Workers is the worker count the search actually ran with.
	Workers int

	// Reduction is the reduction set that actually ran, after scenario
	// gating (RedNone when reductions were off or gated away).
	Reduction Reduction
	// StatesPruned counts successor candidates the reductions discarded
	// before or just after stepping: skipped activation subsets, freeze
	// subsets and arbitration combinations, plus post-step futile
	// activations. Zero when partial-order reduction is off.
	StatesPruned int
	// SleepSetHits counts expanded states whose sleep set was non-empty
	// (at least one held message provably unable to inject that cycle).
	SleepSetHits int
	// SymmetryGroup is 1 + the number of scenario symmetries the
	// canonical encoding quotients by (1 when symmetry reduction is off
	// or the scenario has no usable symmetry).
	SymmetryGroup int

	// Warnings lists non-fatal problems the search survived — today,
	// reductions a liveness search ignored.
	Warnings []string
}

// provNode is one slot of the flat provenance arena: which frontier state
// a state was expanded from, and the ordinal of the decision that produced
// it within the parent's canonical decision enumeration. Decisions are
// reconstructed from ordinals only when a witness is actually needed,
// which keeps the per-state provenance cost at 8 bytes.
type provNode struct {
	parent int32 // arena index of the parent, -1 for the root
	dec    int32 // decision ordinal within the parent's enumeration
}

// succState is a successor produced during parallel expansion, waiting for
// the deterministic merge to accept or discard it. Its bytes live in the
// expanding worker's level arena: arena[keyLo:keyHi] is the visited-set
// key (the canonical encoding under symmetry reduction) and
// arena[encLo:encHi] the successor's own encoding, which the next level's
// batch carries so the entry decodes to the real successor rather than its
// orbit representative. Without symmetry the two ranges coincide.
type succState struct {
	keyLo, keyHi int
	encLo, encHi int
	hash         uint64
	budget       int
	dec          int32
}

// expandResult is everything the merge needs to know about one frontier
// entry: whether it terminated (delivered / deadlocked, or under liveness
// locally deadlocked / closing a starvation loop), else its novel
// successors in canonical decision order, which are
// workers[worker].succs[lo:hi].
type expandResult struct {
	delivered  bool
	deadlocked bool
	loop       int32 // liveness: ordinal of a decision stepping back to the entry, else -1
	worker     int32
	lo, hi     int32
}

// engine holds the state shared between the search loop and its workers.
type engine struct {
	opts    SearchOptions
	cfg     enumConfig        // enumeration variant; shared with rebuildTrace
	perms   []sim.Permutation // scenario symmetries; empty = plain encoding
	visited *visitedSet
	workers []*searchWorker
	report  reporter
	// cursor hands out the restart blocks of the level being expanded.
	cursor atomic.Int64
}

// searchWorker is the per-goroutine scratch state for frontier expansion.
type searchWorker struct {
	eng     *engine
	id      int32 // index in engine.workers
	enum    *decisionEnum
	scratch *sim.Sim // successor under construction
	msgs    int      // messages per state

	// starts holds the message offsets (sim.EncodeRangesTo) of the
	// successor being keyed.
	starts []int32
	// base holds the successors of the current activation subset's base
	// decision (succBase), kept for its assembled siblings: the successor
	// with pick ordinal j has message k's bytes at
	// base[baseStarts[j*(msgs+1)+k]:baseStarts[j*(msgs+1)+k+1]], and
	// basePruned[j] is its partial-order post-step verdict. When an
	// assembled sibling first needs it, after every base successor is
	// kept, the probe's encoding before the step follows them, with its
	// message offsets at baseStarts[preAt:]. baseGen and preGen name the
	// activation subset (decisionEnum.actGen) each describes. The arrays
	// only grow, so an assembled successor allocates nothing.
	base       []byte
	baseStarts []int32
	basePruned []bool
	baseGen    uint64
	preAt      int
	preGen     uint64

	// succs and arena hold the successors of every entry the worker
	// expands in one level and their key and encoding bytes. They are
	// reset when the next level's expansion starts, after the merge has
	// copied what it keeps, so a successor costs no allocation of its own.
	succs []succState
	arena []byte

	stats      enumStats // pre-clone pruning counters, summed by reporter.done
	postPruned int64     // post-step futile-activation discards
}

// newEngine builds the engine for a search that began at start.
func newEngine(opts SearchOptions, cfg enumConfig, perms []sim.Permutation, root *sim.Sim, workers int, start time.Time) *engine {
	eng := &engine{
		opts:    opts,
		cfg:     cfg,
		perms:   perms,
		visited: newVisitedSet(opts.Visited),
	}
	eng.report = reporter{eng: eng, start: start}
	eng.workers = make([]*searchWorker, workers)
	for i := range eng.workers {
		eng.workers[i] = &searchWorker{
			eng:     eng,
			id:      int32(i),
			enum:    newDecisionEnum(root),
			scratch: root.Clone(),
			msgs:    root.NumMessages(),
		}
	}
	return eng
}

// expand computes the fate of one frontier state s with the given stall
// budget. It runs concurrently with other expands but touches only
// worker-local scratch and lock-shared visited reads, so it is safe and —
// because the visited set is frozen during expansion (insertions happen
// only in the merge) — its result is independent of scheduling. s may be
// the enumerator's probe, as it is during a search; forEach leaves it as
// it found it.
//
// A stepped successor (succStep, succBase) is stepped in the worker's
// scratch simulator from the enumerator's probe, which already carries
// the decision's activations, freezes and masks and the arbitration plan
// its Contentions call computed, and is encoded once, with its message
// offsets. A base successor is also kept in worker scratch, per pick
// ordinal. An assembled successor (succAssembled) is neither copied nor
// stepped: the probe does not carry its freezes. Its bytes are copied,
// message by message, from the base successor with the same pick
// ordinal, and for each frozen message from the probe's encoding before
// the step, made once per activation subset. It takes its partial-order
// post-step verdict from that base successor too: the two differ only
// in frozen messages, and an activated message is never frozen under
// partial-order reduction. Every successor is kept only as its encoding,
// written straight into the worker's level arena; under symmetry
// reduction its key is the least relabeling of that encoding, built from
// the message ranges (sim.LeastPermutation).
//
// The first enumerated decision also decides deadlock. It activates and
// freezes nothing, so it steps exactly the state s, and whether some flit
// moves does not depend on arbitration or on which acquirable candidate
// an adaptive header selects (under maskAll the enumerator orders stale
// selections after the acquirable ones, so the first decision makes
// none): with a message in the network, a first successor in which
// nothing moved proves no flit can ever move again among the active
// messages (held messages are the adversary's to withhold forever). The
// verdict is taken before that successor is encoded, so a deadlocked
// state leaves no successor behind, and the pruning counters forEach
// bumped on its way to the first decision are rolled back.
//
// The liveness search (cfg.maskAll) adds two checks, in this order after
// delivery: a permanent Definition 6 cycle in s (waitfor.FindLocal) marks
// s deadlocked before any decision is enumerated — the merge tells local
// from global deadlock on the replayed witness — and after the deadlock
// check the first budget-free decision whose successor encodes exactly as
// enc, s's own encoding, is recorded as a starvation loop. Every encoded
// per-message quantity is monotone under the step relation, so every
// state-graph loop is such a self-loop (DESIGN §8), and the check runs
// before the visited pre-filter, which would reject s as already seen.
// An assembled successor spends stall budget, so it is never that loop.
func (w *searchWorker) expand(s *sim.Sim, enc []byte, budget int) expandResult {
	r := expandResult{worker: w.id, lo: int32(len(w.succs)), loop: -1}
	r.hi = r.lo
	if s.AllDelivered() {
		r.delivered = true
		return r
	}
	liveness := w.eng.cfg.maskAll
	if liveness && waitfor.FindLocal(s) != nil {
		r.deadlocked = true
		return r
	}
	inNetwork := anyInNetwork(s)
	stats := w.stats
	perms := w.eng.perms
	next := w.scratch
	e := w.enum
	dec := int32(-1)
	e.forEach(s, budget, w.eng.cfg, &w.stats, func(d *Decision) bool {
		dec++
		// The successor's encoding goes straight into the arena at lo,
		// with its message offsets in starts; a pruned or rejected one is
		// cut off again.
		lo := len(w.arena)
		pruned := false
		if e.kind == succAssembled {
			pruned = w.basePruned[e.pick]
			if !pruned {
				w.assemble(d.Freeze)
			}
		} else {
			moved := next.StepFrom(e.probe, d.Picks).Moved
			if dec == 0 && inNetwork && !moved {
				r.deadlocked = true
				return false
			}
			// Post-step backstop for partial-order reduction: an activation
			// that failed to inject (message neither in network nor
			// delivered after the step) produced a state dominated by the
			// same decision without it — identical except the held bit,
			// with the held variant keeping strictly more adversary power.
			// The pre-clone filters catch almost all of these; this catches
			// the rest. It fires after dec++, so provenance ordinals are
			// unaffected.
			if w.eng.cfg.por {
				for _, id := range d.Activate {
					if !next.InNetwork(id) && !next.Delivered(id) {
						pruned = true
						break
					}
				}
			}
			if !pruned {
				w.starts = next.EncodeRangesTo(&w.arena, w.starts[:0])
			}
			if e.kind == succBase {
				w.keepBase(w.arena[lo:], pruned)
			}
		}
		if pruned {
			w.postPruned++
			return true
		}
		newBudget := budget - len(d.Freeze)
		su := succState{encLo: lo, encHi: len(w.arena), budget: newBudget, dec: dec}
		su.keyLo, su.keyHi = su.encLo, su.encHi
		if len(perms) > 0 {
			if least := sim.LeastPermutation(perms, w.arena[lo:], w.starts); least >= 0 {
				w.arena = sim.AppendPermuted(w.arena, w.arena[lo:], w.starts, &perms[least])
				su.keyLo, su.keyHi = su.encHi, len(w.arena)
			}
		}
		key := w.arena[su.keyLo:su.keyHi]
		if liveness && inNetwork && newBudget == budget && bytes.Equal(key, enc) {
			r.loop = dec
			return false
		}
		su.hash = w.eng.visited.hash(key)
		// Pre-filter against states accepted in previous levels. Visited
		// only grows at merge time, so a rejection here is final: budgets
		// recorded there can only increase, never making a rejected
		// (encoding, budget) pair novel again.
		if !w.eng.visited.novel(su.hash, key, newBudget) {
			w.arena = w.arena[:lo]
			return true
		}
		w.succs = append(w.succs, su)
		return true
	})
	if r.deadlocked {
		w.stats = stats
		return r
	}
	r.hi = int32(len(w.succs))
	return r
}

// keepBase keeps the stepped successor enc, with its message offsets in
// starts, or only its pruned verdict, as the base successor with the
// enumerator's current pick ordinal.
func (w *searchWorker) keepBase(enc []byte, pruned bool) {
	e := w.enum
	if w.baseGen != e.actGen {
		w.base, w.baseStarts, w.basePruned = w.base[:0], w.baseStarts[:0], w.basePruned[:0]
		w.baseGen = e.actGen
	}
	w.basePruned = growTo(w.basePruned, e.pick+1)
	w.basePruned[e.pick] = pruned
	if pruned {
		return
	}
	n := w.msgs + 1
	w.baseStarts = growTo(w.baseStarts, (e.pick+1)*n)
	at := int32(len(w.base))
	for k, st := range w.starts {
		w.baseStarts[e.pick*n+k] = at + st
	}
	w.base = append(w.base, enc...)
}

// assemble appends the successor of the assembled decision freezing frz
// (ascending) to the arena, with its message offsets in starts: each
// frozen message's bytes from the probe's pre-step encoding, every other
// message's from the base successor with the same pick ordinal.
func (w *searchWorker) assemble(frz []int) {
	e := w.enum
	if w.preGen != e.actGen {
		at := len(w.base)
		w.preAt = len(w.baseStarts)
		w.baseStarts = e.probe.EncodeRangesTo(&w.base, w.baseStarts)
		for k := w.preAt; k < len(w.baseStarts); k++ {
			w.baseStarts[k] += int32(at)
		}
		w.preGen = e.actGen
	}
	bs, pre := w.baseStarts[e.pick*(w.msgs+1):], w.baseStarts[w.preAt:]
	lo := len(w.arena)
	w.starts = w.starts[:0]
	for id := 0; id < w.msgs; id++ {
		from := bs
		if len(frz) > 0 && frz[0] == id {
			frz, from = frz[1:], pre
		}
		w.starts = append(w.starts, int32(len(w.arena)-lo))
		w.arena = append(w.arena, w.base[from[id]:from[id+1]]...)
	}
	w.starts = append(w.starts, int32(len(w.arena)-lo))
}

// growTo returns s with length at least n, keeping its elements.
func growTo[T any](s []T, n int) []T {
	if len(s) < n {
		s = slices.Grow(s, n-len(s))[:n]
	}
	return s
}

// expandBatch fans an encoded frontier out across the workers: each claims
// restart blocks, decodes every entry into its enumerator's probe and
// expands it in place. Results land at the entry's batch index, so the
// merge consumes them in batch order whatever the claim order was. With
// one worker or a one-block level it stays on the calling goroutine.
func (eng *engine) expandBatch(batch *frontierBatch, results []expandResult) {
	for _, w := range eng.workers {
		w.succs, w.arena = w.succs[:0], w.arena[:0]
	}
	eng.cursor.Store(0)
	nw := min(len(eng.workers), batch.blocks())
	if nw <= 1 {
		eng.workers[0].expandBlocks(batch, results)
		return
	}
	var wg sync.WaitGroup
	for _, w := range eng.workers[:nw] {
		wg.Add(1)
		go func(w *searchWorker) {
			defer wg.Done()
			w.expandBlocks(batch, results)
		}(w)
	}
	wg.Wait()
}

// expandBlocks claims restart blocks of batch until none is left and
// expands their entries, writing each result at its batch index.
func (w *searchWorker) expandBlocks(batch *frontierBatch, results []expandResult) {
	var it batchIter
	for {
		bi := int(w.eng.cursor.Add(1)) - 1
		if bi >= batch.blocks() {
			return
		}
		it.seekBlock(batch, bi)
		for it.next() {
			probe := w.enum.probe
			if err := probe.DecodeFrom(it.cur); err != nil {
				panic(fmt.Sprintf("mcheck: internal error: frontier entry does not decode: %v", err))
			}
			results[it.idx-1] = w.expand(probe, it.cur, it.budget)
		}
	}
}

// anyInNetwork reports whether some message holds flits in the network;
// a state without one is no deadlock.
func anyInNetwork(s *sim.Sim) bool {
	for id := 0; id < s.NumMessages(); id++ {
		if s.InNetwork(id) {
			return true
		}
	}
	return false
}

// Search exhaustively explores every reachable state of the scenario under
// adversarial injection timing, arbitration, and (optionally) stalling. The
// scenario's InjectAt fields are ignored: injection timing is part of the
// adversary's choice, which strictly generalizes any fixed schedule. So is
// arbitration: every outcome is enumerated as picks, and the scenario's
// Arbiter is never consulted.
func Search(sc sim.Scenario, opts SearchOptions) SearchResult {
	return search(sc, opts, false)
}

// search is the one engine behind Search and SearchLiveness; liveness
// selects the latter's enumeration (maskAll) and terminal checks.
func search(sc sim.Scenario, opts SearchOptions, liveness bool) SearchResult {
	start := time.Now()
	opts = normalizeSearchOptions(sc, opts)
	var warnings []string
	if liveness && opts.Reduction != RedNone {
		warnings = append(warnings, fmt.Sprintf(
			"liveness search ignores reductions (%v requested): they preserve reachable deadlocks, not state-graph cycles", opts.Reduction))
		opts.Reduction = RedNone
	}

	// Derive the scenario's symmetries once per search; with none usable
	// the symmetry bit is cleared so the result reports what ran.
	var perms []sim.Permutation
	if opts.Reduction.Symmetry() {
		perms = scenarioSymmetries(sc)
		if len(perms) == 0 {
			opts.Reduction &^= RedSymmetry
		}
	}
	cfg := enumConfig{inTransitOnly: opts.FreezeInTransitOnly, por: opts.Reduction.POR(), maskAll: liveness}

	root := newHeldSim(sc)
	eng := newEngine(opts, cfg, perms, root, opts.Parallelism, start)
	defer eng.visited.close()
	eng.report.warnings = warnings

	// The root, like every successor, is keyed by its canonical encoding
	// and carried in the frontier by its own.
	var rootKey, rootEnc, rootScratch []byte
	root.CanonicalEncodeTo(perms, &rootKey, &rootScratch)
	root.EncodeTo(&rootEnc)
	eng.visited.insert(eng.visited.hash(rootKey), rootKey, opts.StallBudget)

	nodes := []provNode{{parent: -1, dec: -1}}
	states := 1
	level := 0

	// The frontier is a delta-encoded batch (frontier.go). Workers decode
	// and expand it in parallel; the merge then walks it sequentially,
	// which is exactly the order a FIFO queue would dequeue the level, so
	// every visited insertion, state count and early return is the same
	// for any worker count. Accepted successors go into the next batch.
	var builders [2]batchBuilder
	cur := 0
	builders[cur].add(rootEnc, opts.StallBudget, 0)
	var results []expandResult
	var it batchIter
	for {
		batch := &builders[cur].batch
		if batch.count == 0 {
			return eng.report.done(SearchResult{Verdict: VerdictNoDeadlock, States: states})
		}
		eng.report.level(level, batch.count, states)
		if cap(results) < batch.count {
			results = make([]expandResult, batch.count)
		}
		results = results[:batch.count]
		eng.expandBatch(batch, results)
		nxt := 1 - cur
		builders[nxt].reset()
		it.seekAll(batch)
		for it.next() {
			res := &results[it.idx-1]
			if res.delivered {
				continue
			}
			if res.deadlocked {
				// The batch entry decodes to the deadlocked state, but its
				// wall clock is relative; replay the witness trace instead
				// so waitfor sees the state exactly as the search reached
				// it. Under liveness a permanent cycle is a local deadlock
				// when traffic outside it can still be delivered.
				trace := rebuildTrace(sc, nodes, it.node, opts, cfg)
				s := Replay(sc, trace)
				r := SearchResult{Verdict: VerdictDeadlock, States: states, Trace: trace}
				var ld *waitfor.LocalDeadlock
				if cfg.maskAll {
					ld = waitfor.FindLocal(s)
				}
				switch {
				case ld == nil:
					r.Deadlock = waitfor.Find(s)
				case len(ld.Live) > 0:
					r.Verdict, r.Deadlock, r.Local = VerdictLocalDeadlock, &ld.Deadlock, ld
				default:
					r.Deadlock = &ld.Deadlock
				}
				return eng.report.done(r)
			}
			if res.loop >= 0 {
				// The loop decision leads back to this entry: its provenance
				// path plus that decision is the stem plus the loop.
				nodes = append(nodes, provNode{parent: it.node, dec: res.loop})
				trace := rebuildTrace(sc, nodes, int32(len(nodes)-1), opts, cfg)
				stem := trace[: len(trace)-1 : len(trace)-1]
				return eng.report.done(SearchResult{
					Verdict: VerdictLivelock,
					States:  states,
					Trace:   trace,
					Lasso:   &Lasso{Stem: stem, Loop: trace[len(stem):], Starved: starvedIDs(Replay(sc, stem))},
				})
			}
			w := eng.workers[res.worker]
			for _, su := range w.succs[res.lo:res.hi] {
				// Re-check against states merged earlier this level; the
				// workers' pre-filter only saw previous levels.
				if !eng.visited.insert(su.hash, w.arena[su.keyLo:su.keyHi], su.budget) {
					continue
				}
				states++
				if states > opts.MaxStates {
					return eng.report.done(SearchResult{Verdict: VerdictExhausted, States: states})
				}
				nodes = append(nodes, provNode{parent: it.node, dec: su.dec})
				builders[nxt].add(w.arena[su.encLo:su.encHi], su.budget, int32(len(nodes)-1))
			}
		}
		cur = nxt
		level++
	}
}

// newHeldSim instantiates the scenario with every message held at its
// source and ready (InjectAt normalized to 0 so state encodings are
// time-invariant).
func newHeldSim(sc sim.Scenario) *sim.Sim {
	s := sim.New(sc.Net, sc.Cfg)
	for _, m := range sc.Msgs {
		m.InjectAt = 0
		id := s.MustAdd(m)
		s.SetHeld(id, true)
	}
	return s
}

// apply performs a decision on the simulator: its activations, freezes
// and masks, then one step under its picks.
func apply(s *sim.Sim, d Decision) sim.StepResult {
	for _, id := range d.Activate {
		s.SetHeld(id, false)
	}
	for _, id := range d.Freeze {
		s.SetFrozen(id, 1)
	}
	for _, m := range d.Masks {
		s.SetMask(m.Msg, m.Channel)
	}
	return s.StepWithPicks(d.Picks)
}

// rebuildTrace turns a provenance arena path into a witness trace. The
// arena stores only decision ordinals, so the trace is reconstructed by
// replaying from the root: at each state the canonical enumeration is run
// just far enough to recover decision #dec, which is applied and the walk
// continues. This trades O(depth × decisions-per-state) work at witness
// time — paid once, only on a verdict with a witness — for never
// materializing Decisions during the search itself.
func rebuildTrace(sc sim.Scenario, nodes []provNode, idx int32, opts SearchOptions, cfg enumConfig) []Decision {
	var rev []int32
	for i := idx; nodes[i].parent >= 0; i = nodes[i].parent {
		rev = append(rev, nodes[i].dec)
	}
	trace := make([]Decision, 0, len(rev))
	s := newHeldSim(sc)
	enum := newDecisionEnum(s)
	budget := opts.StallBudget
	for k := len(rev) - 1; k >= 0; k-- {
		target := rev[k]
		var chosen Decision
		found := false
		ord := int32(-1)
		enum.forEach(s, budget, cfg, nil, func(d *Decision) bool {
			ord++
			if ord == target {
				chosen = copyDecision(d)
				found = true
				return false
			}
			return true
		})
		if !found {
			panic("mcheck: internal error: provenance decision ordinal out of range")
		}
		apply(s, chosen)
		budget -= len(chosen.Freeze)
		trace = append(trace, chosen)
	}
	return trace
}

// Replay re-executes a Search trace on a fresh instance of the scenario and
// returns the resulting simulator, so tests can independently verify that
// the trace leads to the claimed deadlock.
func Replay(sc sim.Scenario, trace []Decision) *sim.Sim {
	s := newHeldSim(sc)
	for _, dec := range trace {
		apply(s, dec)
	}
	return s
}
