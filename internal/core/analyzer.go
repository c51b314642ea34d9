package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cdg"
	"repro/internal/mcheck"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/unreachable"
)

// Freedom is the analyzer's overall verdict on a routing algorithm.
type Freedom int

const (
	// DeadlockFree: the algorithm cannot deadlock — either its CDG is
	// acyclic, or every cycle decomposes only into unreachable (false
	// resource cycle) configurations.
	DeadlockFree Freedom = iota
	// DeadlockCapable: a reachable Definition 6 deadlock exists; the
	// report carries the configuration.
	DeadlockCapable
	// Unknown: some cycle has a configuration outside the geometry the
	// Section 5 theory covers (or enumeration was truncated), and no
	// reachable configuration was found.
	Unknown
)

// String renders the verdict.
func (f Freedom) String() string {
	switch f {
	case DeadlockFree:
		return "deadlock-free"
	case DeadlockCapable:
		return "deadlock-capable"
	}
	return "unknown"
}

// ConfigVerdict classifies one candidate configuration.
type ConfigVerdict int

const (
	// ConfigUnreachable: a false resource cycle.
	ConfigUnreachable ConfigVerdict = iota
	// ConfigReachable: a reachable deadlock.
	ConfigReachable
	// ConfigUnknown: outside the supported geometry.
	ConfigUnknown
)

// String renders the configuration verdict.
func (v ConfigVerdict) String() string {
	switch v {
	case ConfigUnreachable:
		return "unreachable"
	case ConfigReachable:
		return "reachable"
	}
	return "unknown"
}

// ConfigReport is the analysis of one candidate configuration.
type ConfigReport struct {
	Config  Configuration
	Verdict ConfigVerdict
	// Reason names the rule that decided the verdict.
	Reason string
	// Witness is the reachable configuration's schedule, when available.
	Witness *unreachable.Witness
	// SearchResult is the exhaustive model checker's verdict on the
	// configuration's single-instance scenario (see ConfigScenario),
	// populated only when Options.Search is set.
	SearchResult *mcheck.SearchResult
}

// CycleReport is the analysis of one CDG cycle.
type CycleReport struct {
	Cycle   cdg.Cycle
	Configs []ConfigReport
	// Truncated reports that configuration enumeration hit the cap.
	Truncated bool
	// Verdict aggregates the configurations: reachable if any is,
	// unknown if any is unknown (or enumeration truncated) and none
	// reachable, unreachable otherwise.
	Verdict ConfigVerdict
}

// Report is the full analysis of a routing algorithm.
type Report struct {
	Algorithm  string
	Properties routing.Properties

	CDGEdges int
	Acyclic  bool
	// Numbering certifies acyclicity: every dependency goes from a
	// lower-numbered channel to a higher-numbered one. Nil when cyclic.
	Numbering []int

	// Screen names the corollary that short-circuited cycle analysis
	// ("suffix-closed" or "input-channel-independent"), if any: such
	// algorithms cannot have unreachable configurations, so any cycle is
	// a reachable deadlock (Corollaries 1-3).
	Screen string

	Cycles          []CycleReport
	CyclesTruncated bool

	Verdict Freedom
	// Reason summarizes the verdict derivation.
	Reason string
}

// Options bounds the analysis.
type Options struct {
	// MaxCycles caps cycle enumeration (0 = DefaultMaxCycles).
	MaxCycles int
	// MaxConfigs caps configuration enumeration per cycle (0 =
	// DefaultMaxConfigs). Each tiling of a cycle is enumerated once per
	// boundary it has and kept only from its smallest boundary; the cap
	// counts the configurations kept from earlier start positions plus
	// every tiling enumerated from the current one, repeats included. A
	// truncated cycle can therefore report fewer than MaxConfigs
	// configurations.
	MaxConfigs int
	// Search, when non-nil, cross-checks every classified configuration
	// with the exhaustive state-space model checker: the configuration is
	// instantiated as a scenario (ConfigScenario, one message per member)
	// and mcheck.Search decides deadlock reachability for that message
	// set exactly, under the given options. Results land in
	// ConfigReport.SearchResult; the static verdict is not overridden —
	// disagreements surface in the report for the caller (or a test) to
	// flag. The cross-check multiplies analysis cost by the state-space
	// size, so it is opt-in.
	Search *mcheck.SearchOptions
}

// Default analysis bounds. DefaultMaxConfigs counts enumerated tilings,
// repeated rotations included, as Options.MaxConfigs describes.
const (
	DefaultMaxCycles  = 64
	DefaultMaxConfigs = 256
)

// Analyze runs the full deadlock-freedom analysis on an oblivious routing
// algorithm.
func Analyze(alg routing.Algorithm, opts Options) *Report {
	if opts.MaxCycles <= 0 {
		opts.MaxCycles = DefaultMaxCycles
	}
	if opts.MaxConfigs <= 0 {
		opts.MaxConfigs = DefaultMaxConfigs
	}
	rep := &Report{
		Algorithm:  alg.Name(),
		Properties: routing.CheckAll(alg),
	}
	g := cdg.New(alg)
	rep.CDGEdges = g.NumEdges()
	ok, numbering := g.Acyclic()
	rep.Acyclic = ok
	rep.Numbering = numbering
	if ok {
		rep.Verdict = DeadlockFree
		rep.Reason = "acyclic channel dependency graph (Dally-Seitz); topological numbering certificate attached"
		return rep
	}

	cycles, truncated := g.Cycles(opts.MaxCycles)
	rep.CyclesTruncated = truncated

	// Corollary screen: suffix-closed (Cor 2) or input-channel-independent
	// (Cor 1) algorithms have no unreachable configurations, so a cyclic
	// CDG means a reachable deadlock. The corollary proofs construct the
	// deadlock from the suffix messages, so they only apply to complete
	// algorithms — a partial table can be vacuously suffix-closed.
	if rep.Properties.Complete {
		if rep.Properties.SuffixClosed {
			rep.Screen = "suffix-closed"
		} else if rep.Properties.InputChannelIndependent {
			rep.Screen = "input-channel-independent"
		}
	}
	if rep.Screen != "" {
		rep.Verdict = DeadlockCapable
		rep.Reason = fmt.Sprintf("cyclic CDG and %s routing: by Corollary %s the cycle cannot be unreachable",
			rep.Screen, map[string]string{"suffix-closed": "2", "input-channel-independent": "1"}[rep.Screen])
		for _, cyc := range cycles {
			rep.Cycles = append(rep.Cycles, CycleReport{Cycle: cyc, Verdict: ConfigReachable})
		}
		return rep
	}

	rep.Cycles = analyzeCycles(newPathIndex(alg), cycles, opts.MaxConfigs)
	anyReachable := false
	anyUnknown := truncated
	for i := range rep.Cycles {
		cr := &rep.Cycles[i]
		if opts.Search != nil {
			for j := range cr.Configs {
				res := mcheck.Search(ConfigScenario(alg, cr.Configs[j].Config), *opts.Search)
				cr.Configs[j].SearchResult = &res
			}
		}
		switch cr.Verdict {
		case ConfigReachable:
			anyReachable = true
		case ConfigUnknown:
			anyUnknown = true
		}
	}
	switch {
	case anyReachable:
		rep.Verdict = DeadlockCapable
		rep.Reason = "a cycle admits a reachable Definition 6 configuration"
	case anyUnknown:
		rep.Verdict = Unknown
		rep.Reason = "no reachable configuration found, but some cycles exceed the supported geometry or bounds"
	default:
		rep.Verdict = DeadlockFree
		rep.Reason = "every CDG cycle decomposes only into false resource cycles (unreachable configurations)"
	}
	return rep
}

// analyzeCycles analyzes every cycle on min(GOMAXPROCS, cycles) workers,
// each claiming the next unclaimed cycle and writing its report at the
// cycle's index, so the reports come out in cycle order at any
// parallelism. With one worker it stays on the calling goroutine. A panic
// in a worker is re-raised on the caller.
func analyzeCycles(idx *pathIndex, cycles []cdg.Cycle, maxConfigs int) []CycleReport {
	reports := make([]CycleReport, len(cycles))
	var cursor atomic.Int64
	run := func() {
		w := newCycleWorker(idx)
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(cycles) {
				return
			}
			reports[i] = w.analyzeCycle(cycles[i], maxConfigs)
		}
	}
	nw := min(runtime.GOMAXPROCS(0), len(cycles))
	if nw <= 1 {
		run()
		return reports
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
					cursor.Store(int64(len(cycles)))
				}
			}()
			run()
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return reports
}

// analyzeCycle decomposes one cycle and classifies its configurations.
func (w *cycleWorker) analyzeCycle(cyc cdg.Cycle, maxConfigs int) CycleReport {
	cr := CycleReport{Cycle: cyc}
	configs, truncated := w.decompose(cyc, maxConfigs)
	cr.Truncated = truncated
	if len(configs) == 0 {
		// No message set can produce this cycle at all: the dependencies
		// exist pairwise but no tiling realizes them simultaneously.
		cr.Verdict = ConfigUnreachable
		return cr
	}
	cr.Configs = make([]ConfigReport, len(configs))
	anyReachable, anyUnknown := false, truncated
	for i, cfg := range configs {
		rep := &cr.Configs[i]
		w.classify(cfg, rep)
		switch rep.Verdict {
		case ConfigReachable:
			anyReachable = true
		case ConfigUnknown:
			anyUnknown = true
		}
	}
	switch {
	case anyReachable:
		cr.Verdict = ConfigReachable
	case anyUnknown:
		cr.Verdict = ConfigUnknown
	default:
		cr.Verdict = ConfigUnreachable
	}
	return cr
}

// classify maps a configuration onto the Section 5 timing model when its
// geometry allows, and classifies it into rep.
func (w *cycleWorker) classify(cfg Configuration, rep *ConfigReport) {
	rep.Config = cfg

	// Geometry checks: approaches must avoid the cycle's channels, and
	// pairwise share at most one common channel, which must be the first
	// channel of every approach that uses it. A channel is shared when a
	// member finds it stamped by an earlier member of this configuration.
	base := w.stamp
	var shared topology.ChannelID = topology.None
	multiple := false
	for _, m := range cfg.Members {
		w.stamp++
		for _, c := range m.Approach {
			if w.pos[c] >= 0 {
				if w.onCycle[c] == "" {
					w.onCycle[c] = fmt.Sprintf("member approach uses cycle channel %d; outside supported geometry", c)
				}
				rep.Verdict = ConfigUnknown
				rep.Reason = w.onCycle[c]
				return
			}
			if w.seen[c] == w.stamp {
				rep.Verdict = ConfigUnknown
				rep.Reason = "member approach repeats a channel"
				return
			}
			if w.seen[c] > base {
				multiple = multiple || (shared != topology.None && shared != c)
				shared = c
			}
			w.seen[c] = w.stamp
		}
	}
	if multiple {
		rep.Verdict = ConfigUnknown
		rep.Reason = "multiple shared approach channels; outside supported geometry"
		return
	}
	w.entrants = w.entrants[:0]
	for _, m := range cfg.Members {
		e := unreachable.Entrant{D: len(m.Approach), C: len(m.Arc)}
		if shared != topology.None {
			for i, c := range m.Approach {
				if c == shared {
					if i != 0 {
						rep.Verdict = ConfigUnknown
						rep.Reason = "shared channel is not the first approach channel; outside supported geometry"
						return
					}
					e.Shared = true
				}
			}
		}
		w.entrants = append(w.entrants, e)
	}

	// TheoremN generalizes the paper's Theorem 5 to any member count: the
	// single-instance timing system plus the interposed-copy blockability
	// screen.
	tn := unreachable.TheoremN(unreachable.Config{Entrants: w.entrants})
	switch {
	case tn.SingleInstance == unreachable.DeadlockReachable:
		rep.Verdict = ConfigReachable
		rep.Reason = "timing system feasible (Section 5 model); witness schedule attached"
		rep.Witness = tn.Witness
	case !tn.Unreachable:
		rep.Verdict = ConfigReachable
		rep.Reason = fmt.Sprintf("members %v are blockable outside the cycle by interposed copies (Theorem 4 reduction)", tn.Blockable)
	default:
		rep.Verdict = ConfigUnreachable
		rep.Reason = "timing system infeasible for every shared-channel ordering, and no member is blockable outside the cycle (false resource cycle)"
	}
}
