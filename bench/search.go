package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/papernets"
	"repro/internal/sim"
	"repro/internal/waitfor"
)

// searchSpec is one exhaustive-search workload: mcheck.Search on
// papernets.GenK(k) with fixed options and a pinned outcome.
type searchSpec struct {
	k       int
	opts    mcheck.SearchOptions
	verdict mcheck.Verdict
	states  int
	// witness: check each deadlock witness by replaying it.
	witness bool
}

func searchWorkload(name string, spec searchSpec) *Workload {
	return &Workload{
		Name: name, Work: "states", TracedOps: 30,
		Setup: func(seed int64, dir string) (Instance, error) {
			sc := papernets.GenK(spec.k).Scenario
			opts := spec.opts
			opts.Visited.SpillDir = dir
			return &searchInstance{spec: spec, sc: sc, opts: opts, corpus: captureCorpus(sc, seed)}, nil
		},
	}
}

var (
	// search-proof explores the whole space with no early exit, so decision
	// enumeration, CopyFrom, StepWithPicks, EncodeTo, the visited probe and
	// insert, the live-sim frontier and GC do nearly all the work.
	searchProof = searchWorkload("search-proof",
		searchSpec{
			k:       3,
			opts:    mcheck.SearchOptions{StallBudget: 1, FreezeInTransitOnly: true, Parallelism: 1},
			verdict: mcheck.VerdictNoDeadlock, states: 8882,
		})
	// search-spill is the same input through the spill visited backend:
	// run writes beside pread probes, and a batched frontier decoded with
	// DecodeFrom. A visited-set or frontier change that helps the in-memory
	// backend but costs this one shows here. At 768 KiB each of the 64
	// shards spills about once, so probes pread about one run each. Smaller
	// budgets add compactions but turn the op into page-cache copies
	// (110 MB per op at 64 KiB), whose cost varied twofold between
	// identical runs on a shared host.
	searchSpill = searchWorkload("search-spill",
		searchSpec{
			k: 3,
			opts: mcheck.SearchOptions{StallBudget: 1, FreezeInTransitOnly: true, Parallelism: 1,
				Visited: mcheck.VisitedConfig{Backend: mcheck.VisitedSpill, MemBudget: 768 << 10}},
			verdict: mcheck.VerdictNoDeadlock, states: 8882,
		})
	// search-witness is the one workload where canonical encoding, the
	// partial-order filters, witness reconstruction, two-worker fan-out and
	// the serial merge matter: the multi-core row.
	searchWitness = searchWorkload("search-witness",
		searchSpec{
			k: 7,
			opts: mcheck.SearchOptions{StallBudget: 7, FreezeInTransitOnly: true, Parallelism: 2,
				Reduction: mcheck.RedPOR | mcheck.RedSymmetry},
			verdict: mcheck.VerdictDeadlock, states: 15065, witness: true,
		})
)

// Corpus capture: corpusSchedules concrete runs of the scenario, each
// with random injection times and a random priority arbiter.
const (
	corpusSchedules = 200
	corpusMaxCycles = 1000
)

// captureCorpus records the encoding of every cycle's Clone along the
// scenario's concrete schedules: real mid-flight states for timing sim's
// exported calls in isolation.
func captureCorpus(sc sim.Scenario, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	n := len(sc.Msgs)
	times := make([]int, n)
	var corpus [][]byte
	for k := 0; k < corpusSchedules; k++ {
		last := 0
		for i := range times {
			times[i] = rng.Intn(4 * n)
			last = max(last, times[i])
		}
		run := sc.WithInjectTimes(times)
		run.Cfg.Arbiter = sim.PriorityArbiter{Order: rng.Perm(n)}
		s := run.NewSim()
		for cycle := 0; cycle < corpusMaxCycles; cycle++ {
			var enc []byte
			s.Clone().EncodeTo(&enc)
			corpus = append(corpus, enc)
			if s.AllDelivered() || (!s.Step().Moved && s.Now() > last) {
				break
			}
		}
	}
	return corpus
}

type searchInstance struct {
	spec   searchSpec
	sc     sim.Scenario
	opts   mcheck.SearchOptions
	corpus [][]byte
}

// searchOut is one search op's output.
type searchOut struct {
	res    mcheck.SearchResult
	levels *levelTracer // nil in an untraced run
}

func (s *searchInstance) Distinct() int  { return 1 }
func (s *searchInstance) DigestOps() int { return 1 }

func (s *searchInstance) Run(_ int, sp *Spans, parent int) (any, error) {
	out := &searchOut{}
	opts := s.opts
	id := sp.Begin("mcheck.Search", parent)
	if sp != nil {
		out.levels = &levelTracer{spans: sp, parent: id, open: -1}
		opts.Tracer = out.levels
	}
	out.res = mcheck.Search(s.sc, opts)
	sp.End(id)
	return out, nil
}

func (s *searchInstance) Check(_ int, o any, sp *Spans, parent int) (float64, string, error) {
	r := &o.(*searchOut).res
	work := float64(r.States)
	if r.Verdict != s.spec.verdict || r.States != s.spec.states {
		return work, "", fmt.Errorf("verdict %v over %d states, want %v over %d", r.Verdict, r.States, s.spec.verdict, s.spec.states)
	}
	if s.opts.Visited.Backend == mcheck.VisitedSpill && r.Visited.SpillRuns == 0 {
		return work, "", fmt.Errorf("spill backend wrote no runs")
	}
	witness := ""
	if s.spec.witness {
		id := sp.Begin("mcheck.Replay", parent)
		end := mcheck.Replay(s.sc, r.Trace)
		sp.End(id)
		id = sp.Begin("waitfor.Find", parent)
		d := waitfor.Find(end)
		sp.End(id)
		if d == nil {
			return work, "", fmt.Errorf("witness of %d decisions replays to a state with no deadlock cycle", len(r.Trace))
		}
		witness = fmt.Sprint(r.Trace, d, r.Deadlock)
	}
	return work, digest("%v %d %s", r.Verdict, r.States, witness), nil
}

func (s *searchInstance) Layers(m Metrics, outs []any, spans []Span) error {
	var last *searchOut
	var spillRuns, compactions, nsPerState, levelMs, replayMs []float64
	replay := map[int]time.Duration{}
	for _, sp := range spans {
		d := sp.End - sp.Start
		switch sp.Name {
		case "mcheck.Search":
			if o, ok := outs[sp.Op].(*searchOut); ok && o.res.States > 0 {
				nsPerState = append(nsPerState, float64(d)/float64(o.res.States))
			}
		case "mcheck.level":
			levelMs = append(levelMs, float64(d)/1e6)
		case "mcheck.Replay", "waitfor.Find":
			replay[sp.Op] += d
		}
	}
	for _, d := range replay {
		replayMs = append(replayMs, float64(d)/1e6)
	}
	for _, o := range outs {
		if out, ok := o.(*searchOut); ok {
			last = out
			spillRuns = append(spillRuns, float64(out.res.Visited.SpillRuns))
			compactions = append(compactions, float64(out.res.Visited.Compactions))
		}
	}
	if last == nil {
		return fmt.Errorf("no search completed")
	}
	r, n := &last.res, len(outs)
	m.set("mcheck.states", float64(r.States), "count", n)
	m.set("mcheck.peak_visited", float64(r.PeakVisited), "count", n)
	m.set("mcheck.levels", float64(last.levels.levels), "count", n)
	m.set("mcheck.frontier_peak", float64(last.levels.frontierPeak), "count", n)
	m.set("mcheck.states_pruned", float64(r.StatesPruned), "count", n)
	m.set("mcheck.prune_ratio", float64(r.StatesPruned)/float64(r.StatesPruned+r.States), "fraction", n)
	m.set("mcheck.symmetry_group", float64(r.SymmetryGroup), "count", n)
	m.set("mcheck.witness_depth", float64(len(r.Trace)), "count", n)
	m.set("mcheck.visited_mib", float64(r.Visited.Bytes)/(1<<20), "MiB", n)
	m.set("mcheck.spill_mib", float64(r.Visited.SpillBytes)/(1<<20), "MiB", n)
	// Spill runs and compactions depend on which shard each state hashes
	// to, and the visited hash is seeded per process: medians.
	m.set("mcheck.spill_runs", Median(spillRuns), "count", n)
	m.set("mcheck.compactions", Median(compactions), "count", n)
	m.set("mcheck.ns_per_state", Median(nsPerState), "ns", len(nsPerState))
	m.set("mcheck.level_ms_p50", Median(levelMs), "ms", len(levelMs))
	m.set("mcheck.level_ms_max", Percentile(levelMs, 100), "ms", len(levelMs))
	if len(replayMs) > 0 {
		m.set("mcheck.replay_ms", Median(replayMs), "ms", len(replayMs))
	}
	return measureSim(s.sc, s.corpus, m)
}

// levelTracer is the benchmark's obsv.Tracer for a traced search: it
// times each BFS level, from its KindSearchLevel event to the next one
// (or KindSearchDone), as an mcheck.level span under the search span.
type levelTracer struct {
	spans        *Spans
	parent, open int
	levels       int
	frontierPeak int
}

func (t *levelTracer) Event(e obsv.Event) {
	switch e.Kind {
	case obsv.KindSearchLevel:
		t.spans.End(t.open)
		t.open = t.spans.Begin("mcheck.level", t.parent)
		t.levels++
		t.frontierPeak = max(t.frontierPeak, e.N)
	case obsv.KindSearchDone:
		t.spans.End(t.open)
		t.open = -1
	}
}

// measureSim times sim's exported calls and waitfor.Find one corpus
// state at a time, after one untimed pass, and checks that every state
// decodes and re-encodes to its own bytes.
func measureSim(sc sim.Scenario, corpus [][]byte, m Metrics) error {
	cur, probe := sc.NewSim(), sc.NewSim()
	var buf []byte
	var t [6]time.Duration // decode, clone, copy, step, encode, find
	size := 0
	for pass := 0; pass < 2; pass++ {
		t = [6]time.Duration{}
		size = 0
		for i, enc := range corpus {
			t0 := time.Now()
			if err := cur.DecodeFrom(enc); err != nil {
				return fmt.Errorf("corpus state %d: %w", i, err)
			}
			t1 := time.Now()
			_ = cur.Clone()
			t2 := time.Now()
			probe.CopyFrom(cur)
			t3 := time.Now()
			probe.Step()
			t4 := time.Now()
			buf = buf[:0]
			cur.EncodeTo(&buf)
			t5 := time.Now()
			waitfor.Find(cur)
			t6 := time.Now()
			for k, d := range [6]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4), t6.Sub(t5)} {
				t[k] += d
			}
			size += len(buf)
			if !bytes.Equal(buf, enc) {
				return fmt.Errorf("corpus state %d does not re-encode to its own bytes", i)
			}
		}
	}
	n := len(corpus)
	per := func(d time.Duration) float64 { return float64(d) / float64(n) }
	m.set("sim.decode_ns", per(t[0]), "ns", n)
	m.set("sim.clone_ns", per(t[1]), "ns", n)
	m.set("sim.copyfrom_ns", per(t[2]), "ns", n)
	m.set("sim.step_ns", per(t[3]), "ns", n)
	m.set("sim.encode_ns", per(t[4]), "ns", n)
	m.set("sim.encode_bytes", float64(size)/float64(n), "bytes", n)
	m.set("waitfor.find_ns", per(t[5]), "ns", n)
	return nil
}
