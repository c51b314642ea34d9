package waitfor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// goldenCorpus is one family of seeded random walks of TestWaitforGolden.
// Each seed builds a fresh simulator with mk and walks it under a random
// adversary (freezes and arbitration picks); every state the walk reaches
// is folded into the family's digest. traced families also attach a DOT
// sink and fold its snapshot stream in.
type goldenCorpus struct {
	name   string
	mk     func(rng *rand.Rand) *sim.Sim
	seeds  int
	steps  int
	traced bool
}

// adaptiveRoute offers every minimal next hop toward dst, so a message
// built with it is adaptive in the simulator's sense even when the
// candidate set has one element.
func adaptiveRoute(net *topology.Network) sim.RouteFunc {
	dist := net.Distances()
	return func(at topology.NodeID, _ topology.ChannelID, dst topology.NodeID) []topology.ChannelID {
		var out []topology.ChannelID
		for _, c := range net.Out(at) {
			if next := net.Channel(c).Dst; dist[next][dst] == dist[at][dst]-1 {
				out = append(out, c)
			}
		}
		return out
	}
}

// randomTraffic adds n random messages over alg's paths: lengths 1..4,
// staggered injection (which produces injection-blocked chains), and
// roughly one in four messages adaptive.
func randomTraffic(net *topology.Network, alg routing.Algorithm, n int, rng *rand.Rand) *sim.Sim {
	s := sim.New(net, sim.Config{})
	route := adaptiveRoute(net)
	nodes := net.NumNodes()
	for i := 0; i < n; i++ {
		src := topology.NodeID(rng.Intn(nodes))
		dst := topology.NodeID(rng.Intn(nodes - 1))
		if dst >= src {
			dst++
		}
		spec := sim.MessageSpec{Src: src, Dst: dst, Length: 1 + rng.Intn(4), InjectAt: rng.Intn(6)}
		if rng.Intn(4) == 0 {
			spec.Route = route
		} else {
			spec.Path = alg.Path(src, dst)
		}
		s.MustAdd(spec)
	}
	return s
}

// twoRingsChain is the fixed state where Find and FindLocal disagree:
// ring A (messages 1..4) and ring B (messages 5..8) deadlock, and message
// 0, injected late, waits on a ring B channel. Find's chase starts at
// message 0 and enters ring B; FindLocal orders cycles by smallest member
// and takes ring A.
func twoRingsChain(*rand.Rand) *sim.Sim {
	net := topology.New("tworings-chain")
	net.AddNodes(8)
	var chans [8]topology.ChannelID
	for r := 0; r < 2; r++ {
		base := topology.NodeID(4 * r)
		for i := 0; i < 4; i++ {
			chans[4*r+i] = net.AddChannel(base+topology.NodeID(i), base+topology.NodeID((i+1)%4), 0, "")
		}
	}
	s := sim.New(net, sim.Config{})
	s.MustAdd(sim.MessageSpec{Src: 5, Dst: 7, Length: 1,
		Path: []topology.ChannelID{chans[5], chans[6]}, InjectAt: 2})
	for r := 0; r < 2; r++ {
		base := topology.NodeID(4 * r)
		for i := 0; i < 4; i++ {
			s.MustAdd(sim.MessageSpec{
				Src: base + topology.NodeID(i), Dst: base + topology.NodeID((i+2)%4),
				Length: 2,
				Path:   []topology.ChannelID{chans[4*r+i], chans[4*r+(i+1)%4]},
			})
		}
	}
	return s
}

func goldenCorpora() []goldenCorpus {
	paper := func(pn *papernets.Net) func(*rand.Rand) *sim.Sim {
		return func(*rand.Rand) *sim.Sim { return pn.Scenario.NewSim() }
	}
	uring := topology.NewRing(6, false)
	uringAlg := routing.ShortestBFS(uring)
	mesh := topology.NewMesh([]int{3, 3}, 1).Network
	return []goldenCorpus{
		{name: "figure1", mk: paper(papernets.Figure1()), seeds: 12, steps: 60, traced: true},
		{name: "figure2", mk: paper(papernets.Figure2()), seeds: 12, steps: 60, traced: true},
		{name: "gen2", mk: paper(papernets.GenK(2)), seeds: 8, steps: 60},
		{name: "gen3", mk: paper(papernets.GenK(3)), seeds: 8, steps: 60},
		{name: "gen4", mk: paper(papernets.GenK(4)), seeds: 8, steps: 60},
		{name: "localrings", mk: func(*rand.Rand) *sim.Sim { return papernets.LocalRings().NewSim() }, seeds: 6, steps: 30},
		{name: "tworings-chain", mk: twoRingsChain, seeds: 4, steps: 30},
		{name: "uring6", mk: func(rng *rand.Rand) *sim.Sim { return randomTraffic(uring, uringAlg, 8, rng) }, seeds: 24, steps: 40},
		{name: "mesh3x3", mk: func(rng *rand.Rand) *sim.Sim {
			return randomTraffic(mesh, routing.RandomMinimal(mesh, rng.Int63()), 12, rng)
		}, seeds: 24, steps: 40},
	}
}

// goldenWalk steps s under a seeded adversary until every message is
// delivered, the state is quiescent, or the step budget runs out, calling
// visit on every state reached.
func goldenWalk(s *sim.Sim, rng *rand.Rand, steps int, visit func()) {
	for i := 0; i < steps && !s.AllDelivered(); i++ {
		if rng.Intn(3) == 0 {
			s.SetFrozen(rng.Intn(s.NumMessages()), 1+rng.Intn(2))
		}
		// Pin each adaptive selection to one candidate, as the search
		// does, so the contentions below are exactly what Step arbitrates.
		for id := 0; id < s.NumMessages(); id++ {
			if cands := s.AcquirableCandidates(id); s.IsAdaptive(id) && len(cands) > 1 {
				s.SetMask(id, cands[rng.Intn(len(cands))])
			}
		}
		picks := map[topology.ChannelID]int{}
		for _, c := range s.Contentions() {
			picks[c.Channel] = c.Contenders[rng.Intn(len(c.Contenders))]
		}
		s.StepWithPicks(picks)
		visit()
		if s.Quiescent() {
			return
		}
	}
}

// buildEdges renders Build's wait-for edges in message-ID order.
func buildEdges(s *sim.Sim) string {
	var b strings.Builder
	g := Build(s)
	for id := 0; id < g.Len(); id++ {
		if ch, owner, ok := g.WaitsFor(id); ok {
			fmt.Fprintf(&b, "%d>%d@%d,", id, owner, ch)
		}
	}
	return b.String()
}

// goldenCoverage counts the state shapes the corpus must keep reaching.
type goldenCoverage struct {
	states, injectionChains, multiCycle, findLocalDiffer int
}

// countCycles counts the closed cycles of a wait-for edge list given as
// message -> owner.
func countCycles(next map[int]int) int {
	mark := map[int]int{}
	cycles := 0
	for start := range next {
		for at := start; ; {
			if mark[at] != 0 {
				if mark[at] == start+1 {
					cycles++
				}
				break
			}
			mark[at] = start + 1
			n, ok := next[at]
			if !ok {
				break
			}
			at = n
		}
	}
	return cycles
}

// foldState hashes every wait-for answer about s and tallies its shape.
func foldState(h hash.Hash, s *sim.Sim, cov *goldenCoverage) {
	fmt.Fprintf(h, "%d|%s|", s.Now(), buildEdges(s))
	d := Find(s)
	if d != nil {
		fmt.Fprintf(h, "F%v%v|", d.Cycle, d.Channels)
	} else {
		fmt.Fprint(h, "F-|")
	}
	ld := FindLocal(s)
	if ld != nil {
		fmt.Fprintf(h, "L%v%v%v%v|", ld.Cycle, ld.Channels, ld.Blocked, ld.Live)
	} else {
		fmt.Fprint(h, "L-|")
	}

	cov.states++
	next := map[int]int{}
	injection := false
	for id := 0; id < s.NumMessages(); id++ {
		if _, owner, ok := s.WaitsFor(id); ok {
			next[id] = owner
			if !s.Message(id).InNetwork {
				injection = true
			}
		}
	}
	if injection {
		cov.injectionChains++
	}
	if countCycles(next) >= 2 {
		cov.multiCycle++
	}
	if d != nil && ld != nil && fmt.Sprint(d.Cycle) != fmt.Sprint(ld.Cycle) {
		cov.findLocalDiffer++
	}
}

// TestWaitforGolden pins Find, FindLocal, Build's edges and the traced
// wait-for artifacts over seeded random walks of the paper networks,
// Gen(2..4), the local-rings scenario, a two-ring state where Find and
// FindLocal choose different cycles, and random ring and mesh traffic
// with adaptive members and staggered injection. The paper-network,
// Gen and ring-scenario digests were recorded on the three-graph
// implementation (a map-based Graph with Tarjan SCCs, the DOT sink's own
// graph, and the telemetry WaitGraph), so they certify that one shared
// graph answers identically; uring6 and mesh3x3 were re-pinned when their
// corpus stopped drawing channel faults, and figure1 and figure2 when their
// traced fold was cut to the DOT snapshot stream alone.
// Regenerate only for an intended change of output, with
// go test ./internal/waitfor -run TestWaitforGolden -v (the log prints
// every digest).
func TestWaitforGolden(t *testing.T) {
	var cov goldenCoverage
	for _, c := range goldenCorpora() {
		h := sha256.New()
		for seed := 0; seed < c.seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			s := c.mk(rng)
			var dot bytes.Buffer
			var sink *obsv.DOTSink
			if c.traced {
				sink = obsv.NewDOT(&dot, c.name)
				s.SetTracer(sink)
			}
			foldState(h, s, &cov)
			goldenWalk(s, rng, c.steps, func() { foldState(h, s, &cov) })
			if c.traced {
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				h.Write(dot.Bytes())
			}
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		t.Logf("%q: %q,", c.name, got)
		if want := waitforGolden[c.name]; got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.states < 500 || cov.injectionChains == 0 || cov.multiCycle == 0 || cov.findLocalDiffer == 0 {
		t.Fatalf("corpus lost a required shape: %+v", cov)
	}
}

var waitforGolden = map[string]string{
	"figure1":        "b1ec281b4a921297",
	"figure2":        "c02592f7309ec9af",
	"gen2":           "7dc4e8a50f22f743",
	"gen3":           "521bf58889b1cbbb",
	"gen4":           "74f5b28e3ee795e1",
	"localrings":     "a220498e434308ff",
	"tworings-chain": "42dbf57766e72444",
	"uring6":         "a0f715b39130ab66",
	"mesh3x3":        "387fdd99daa32cb6",
}
