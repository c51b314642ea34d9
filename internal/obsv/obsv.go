// Package obsv is the observability layer of the repository: typed trace
// events, pluggable trace sinks, a metrics registry, and the Sketch that
// holds every latency distribution, shared by the simulator
// (internal/sim) and the search engines (internal/mcheck).
//
// The design goal is zero overhead when disabled: every producer keeps a
// Tracer field that is nil by default and guards each emission with a
// single nil check, so an untraced run pays one predictable branch per
// emission site and allocates nothing. When a Tracer is attached, the
// producers emit Events — flit movement, channel acquisition and release,
// message blocking, wait-for edges, freeze expiries, deadlock and
// quiescence certificates, search levels — that sinks turn into
// deterministic JSONL, Graphviz DOT snapshots of the evolving wait-for
// graph, or Chrome trace_event JSON loadable in Perfetto.
//
// Determinism contract: an Event carries only logical quantities (cycles,
// message IDs, channel IDs, counts) — never wall-clock time — and every
// producer emits from deterministic single-threaded code (the simulator's
// step loop; the search engine's sequential merge). A trace of a fixed
// scenario is therefore byte-identical across runs and across worker
// counts, and doubles as a regression artifact: diffing two traces diffs
// the causal history of the runs. The inspectable wait-for/configuration
// traces follow the methodology of Verbeek & Schmaltz (deadlock detection
// verification) and Stramaglia et al. (deadlock in packet switching):
// a deadlock argument should be auditable from the trace, not just
// asserted by a verdict.
package obsv

import "repro/internal/topology"

// Kind classifies a trace event.
type Kind uint8

const (
	// KindInject: a message's header flit entered the network.
	KindInject Kind = iota
	// KindFlit: one flit advanced into channel Ch (including body-flit
	// injection at the source).
	KindFlit
	// KindConsume: one flit of message Msg was consumed at its destination.
	KindConsume
	// KindDeliver: message Msg's tail was consumed; N is its latency in
	// cycles (delivery - injection + 1).
	KindDeliver
	// KindAcquire: message Msg's header acquired channel Ch.
	KindAcquire
	// KindRelease: message Msg's tail released channel Ch.
	KindRelease
	// KindBlock: message Msg became blocked, waiting for channel Ch held
	// by message Owner (Definition 6's "waits for").
	KindBlock
	// KindUnblock: previously blocked message Msg is no longer waiting.
	KindUnblock
	// KindWaitEdgeAdd: wait-for edge Msg -> Owner over channel Ch appeared.
	KindWaitEdgeAdd
	// KindWaitEdgeDel: wait-for edge Msg -> Owner over channel Ch vanished.
	KindWaitEdgeDel
	// KindThaw: message Msg's Section 6 freeze counter expired.
	KindThaw
	// KindDeadlock: an exact deadlock certificate — the state is quiescent
	// with N undelivered messages.
	KindDeadlock
	// KindOutcome: a run ended; Note holds the sim result string.
	KindOutcome
	// KindSearchLevel: the state-space search starts BFS level Cycle with
	// a frontier of N states, having accepted M states so far.
	KindSearchLevel
	// KindSearchDone: the search finished with N states; Note holds the
	// verdict string.
	KindSearchDone
)

// String returns the stable wire name of the kind, used by every sink.
func (k Kind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindFlit:
		return "flit"
	case KindConsume:
		return "consume"
	case KindDeliver:
		return "deliver"
	case KindAcquire:
		return "acquire"
	case KindRelease:
		return "release"
	case KindBlock:
		return "block"
	case KindUnblock:
		return "unblock"
	case KindWaitEdgeAdd:
		return "wait-add"
	case KindWaitEdgeDel:
		return "wait-del"
	case KindThaw:
		return "thaw"
	case KindDeadlock:
		return "deadlock"
	case KindOutcome:
		return "outcome"
	case KindSearchLevel:
		return "search-level"
	case KindSearchDone:
		return "search-done"
	}
	return "unknown"
}

// Event is one typed trace record. Fields that do not apply to a kind use
// their inactive sentinels (Msg/Owner -1, Ch topology.None, N/M 0, Note
// empty); sinks omit inactive fields. Construct events with Ev and fill in
// the fields the kind needs, so unrelated fields keep their sentinels.
type Event struct {
	Kind  Kind
	Cycle int                // simulation cycle, or BFS level for search events
	Msg   int                // message ID, -1 when not message-related
	Ch    topology.ChannelID // channel, topology.None when not channel-related
	Owner int                // blocking channel's owner, -1 when not applicable
	N     int                // kind-specific count (flits, states, latency)
	M     int                // second kind-specific count (accepted states)
	Note  string             // kind-specific text (verdicts)
}

// Ev returns an Event of the given kind at the given cycle with every
// optional field set to its inactive sentinel.
func Ev(k Kind, cycle int) Event {
	return Event{Kind: k, Cycle: cycle, Msg: -1, Ch: topology.None, Owner: -1}
}

// Tracer consumes trace events. Implementations are driven from a single
// goroutine per producer and need not be safe for concurrent use; fan a
// tracer out with Multi when several producers share it sequentially.
//
// The disabled state is a nil Tracer value — producers guard emissions
// with `if tracer != nil`, which is the entire cost of disabled tracing.
type Tracer interface {
	Event(Event)
}

// Multi fans events out to several tracers in order. Nil members are
// skipped, so optional sinks can be composed without special cases.
type Multi []Tracer

// Event implements Tracer.
func (m Multi) Event(e Event) {
	for _, t := range m {
		if t != nil {
			t.Event(e)
		}
	}
}

// Recorder is a Tracer that retains every event in memory; tests use it to
// assert on emitted sequences.
type Recorder struct {
	Events []Event
}

// Event implements Tracer.
func (r *Recorder) Event(e Event) { r.Events = append(r.Events, e) }

// Count returns how many recorded events have the given kind.
func (r *Recorder) Count(k Kind) int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
