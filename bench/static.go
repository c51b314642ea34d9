package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/topology"
)

// static-analyze: core.Analyze on random minimal algorithms on a 3×3 mesh
// and on every paper network. It runs routing, cdg, core and unreachable
// and bypasses sim and mcheck, so simulator and search changes predict no
// change here. The 4×4 mesh is left out: single Analyze calls there take
// minutes.
var staticAnalyze = &Workload{
	Name:      "static-analyze",
	Work:      "algorithms",
	TracedOps: 30,
	Setup:     newStaticInstance,
}

// staticRandom random minimal algorithms join the paper networks. Analyze
// cost varies tenfold between random algorithms, so a fresh draw per seed
// would move the medians by more than any bound; instead every seed
// relabels the same pool, each algorithm by a seed-drawn symmetry of the
// mesh. The inputs differ per seed — channel and node numbering drive
// cycle enumeration order and every map the analysis builds — while the
// verdicts and the cost distribution stay put.
const staticRandom = 150

type staticInput struct {
	alg routing.Algorithm
	// paper marks a paper network, whose verdict must be want.
	paper bool
	want  core.Freedom
}

type staticInstance struct {
	inputs []staticInput
}

func newStaticInstance(seed int64, _ string) (Instance, error) {
	paper := []staticInput{
		{alg: papernets.Figure1().Alg, paper: true, want: core.DeadlockFree},
		{alg: papernets.Figure2().Alg, paper: true, want: core.DeadlockCapable},
	}
	for l := byte('a'); l <= 'f'; l++ {
		want := core.DeadlockCapable
		if l <= 'b' {
			want = core.DeadlockFree // (a) and (b) are false resource cycles
		}
		paper = append(paper, staticInput{alg: papernets.Figure3(l).Alg, paper: true, want: want})
	}
	for k := 1; k <= 7; k++ {
		paper = append(paper, staticInput{alg: papernets.GenK(k).Alg, paper: true, want: core.DeadlockFree})
	}
	net := topology.NewMesh([]int{3, 3}, 1).Network
	syms, _ := net.Automorphisms(0)
	rng := rand.New(rand.NewSource(seed))
	// Spread the paper networks evenly through the random algorithms, so
	// any prefix of the ops holds both.
	every := (staticRandom + len(paper)) / len(paper)
	inputs := make([]staticInput, 0, staticRandom+len(paper))
	for i, p := 0, 0; i < staticRandom+len(paper); i++ {
		if i%every == 0 && p < len(paper) {
			inputs = append(inputs, paper[p])
			p++
			continue
		}
		r := len(inputs) - p
		sym := rng.Intn(len(syms))
		inputs = append(inputs, staticInput{alg: relabel(routing.RandomMinimal(net, int64(r)), sym, syms[sym])})
	}
	return &staticInstance{inputs: inputs}, nil
}

// relabel returns alg with every node and channel renamed by the network
// automorphism a (symmetry number k).
func relabel(alg routing.Algorithm, k int, a topology.Automorphism) routing.Algorithm {
	net := alg.Network()
	t := routing.NewTable(net, fmt.Sprintf("%s/sym%d", alg.Name(), k))
	for s := range net.Nodes() {
		for d := range net.Nodes() {
			if s == d {
				continue
			}
			path := alg.Path(topology.NodeID(s), topology.NodeID(d))
			mapped := make([]topology.ChannelID, len(path))
			for i, c := range path {
				mapped[i] = a.Chans[c]
			}
			t.MustSetPath(a.Nodes[s], a.Nodes[d], mapped)
		}
	}
	return t
}

func (s *staticInstance) Distinct() int  { return len(s.inputs) }
func (s *staticInstance) DigestOps() int { return 30 }

// staticOut is the part of an Analyze report the checks and the layer
// metrics read; a traced run holds every output until its checks, and
// whole reports run to megabytes.
type staticOut struct {
	algorithm  string
	verdict    core.Freedom
	properties string
	acyclic    bool
	edges      int
	cycles     int
	truncated  bool
	configs    int
	screen     string
}

func (s *staticInstance) Run(i int, sp *Spans, parent int) (any, error) {
	id := sp.Begin("core.Analyze", parent)
	rep := core.Analyze(s.inputs[i%len(s.inputs)].alg, core.Options{})
	sp.End(id)
	out := &staticOut{
		algorithm: rep.Algorithm, verdict: rep.Verdict, properties: rep.Properties.String(),
		acyclic: rep.Acyclic, edges: rep.CDGEdges, cycles: len(rep.Cycles),
		truncated: rep.CyclesTruncated, screen: rep.Screen,
	}
	for _, c := range rep.Cycles {
		out.configs += len(c.Configs)
	}
	return out, nil
}

// Check validates the report. In a traced run it also times Analyze's
// first stages as separate calls on the same input — routing.CheckAll,
// cdg.New and, for a cyclic graph, cdg.Cycles — and checks that they
// agree with the report.
func (s *staticInstance) Check(i int, o any, sp *Spans, parent int) (float64, string, error) {
	rep := o.(*staticOut)
	in := s.inputs[i%len(s.inputs)]
	switch {
	case in.paper && rep.verdict != in.want:
		return 1, "", fmt.Errorf("%s: verdict %v, want %v", rep.algorithm, rep.verdict, in.want)
	case !in.paper && !rep.acyclic && rep.verdict == core.DeadlockFree:
		return 1, "", fmt.Errorf("%s: a minimal algorithm's cycle classified unreachable (Theorem 3)", rep.algorithm)
	}
	if sp != nil {
		id := sp.Begin("routing.CheckAll", parent)
		props := routing.CheckAll(in.alg)
		sp.End(id)
		id = sp.Begin("cdg.New", parent)
		g := cdg.New(in.alg)
		sp.End(id)
		cycles := rep.cycles
		if !rep.acyclic {
			id = sp.Begin("cdg.Cycles", parent)
			cs, _ := g.Cycles(core.DefaultMaxCycles)
			sp.End(id)
			cycles = len(cs)
		}
		if props.String() != rep.properties || g.NumEdges() != rep.edges || cycles != rep.cycles {
			return 1, "", fmt.Errorf("%s: separate calls disagree with the report", rep.algorithm)
		}
	}
	return 1, digest("%s %v %t %d %d %t %d %s", rep.algorithm, rep.verdict, rep.acyclic, rep.edges,
		rep.cycles, rep.truncated, rep.configs, rep.screen), nil
}

func (s *staticInstance) Layers(m Metrics, outs []any, spans []Span) error {
	byName := map[string]time.Duration{}
	for _, sp := range spans {
		byName[sp.Name] += sp.End - sp.Start
	}
	n := len(outs)
	per := func(name string, unit time.Duration) float64 {
		return float64(byName[name]) / float64(unit) / float64(max(n, 1))
	}
	m.set("routing.checkall_us", per("routing.CheckAll", time.Microsecond), "us", n)
	m.set("cdg.new_us", per("cdg.New", time.Microsecond), "us", n)
	m.set("cdg.cycles_us", per("cdg.Cycles", time.Microsecond), "us", n)
	// Analyze time not spent in the stages timed separately: acyclicity,
	// decomposition and classification.
	m.set("core.residual_ms", per("core.Analyze", time.Millisecond)-
		per("routing.CheckAll", time.Millisecond)-per("cdg.New", time.Millisecond)-per("cdg.Cycles", time.Millisecond), "ms", n)
	cycles, configs := 0, 0
	verdicts := map[core.Freedom]int{}
	for i, o := range outs {
		rep, ok := o.(*staticOut)
		if !ok {
			return fmt.Errorf("op %d did not complete", i)
		}
		cycles += rep.cycles
		configs += rep.configs
		verdicts[rep.verdict]++
	}
	m.set("cdg.cycles", float64(cycles), "count", n)
	m.set("core.configs", float64(configs), "count", n)
	m.set("core.free", float64(verdicts[core.DeadlockFree]), "count", n)
	m.set("core.capable", float64(verdicts[core.DeadlockCapable]), "count", n)
	m.set("core.unknown", float64(verdicts[core.Unknown]), "count", n)
	return nil
}
