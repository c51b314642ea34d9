// Package traffic generates synthetic workloads for the wormhole
// simulator: the standard destination patterns of the interconnection
// network literature (uniform random, transpose, bit reversal, hotspot,
// fixed permutation) sampled by a Bernoulli injection process per node per
// cycle. Workloads are deterministic for a fixed seed, so benchmark runs
// are reproducible.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Pattern maps a source node to a destination. Returning src means "no
// message this time" (the draw is skipped).
type Pattern func(src topology.NodeID, rng *rand.Rand) topology.NodeID

// Uniform returns the uniform-random pattern over n nodes.
func Uniform(n int) Pattern {
	return func(src topology.NodeID, rng *rand.Rand) topology.NodeID {
		return topology.NodeID(rng.Intn(n))
	}
}

// Transpose returns the matrix-transpose pattern on a square 2-D grid:
// node (x, y) sends to (y, x).
func Transpose(g *topology.Grid) Pattern {
	if len(g.Dims) != 2 || g.Dims[0] != g.Dims[1] {
		panic("traffic: Transpose needs a square 2-D grid")
	}
	return func(src topology.NodeID, _ *rand.Rand) topology.NodeID {
		c := g.Coords(src)
		return g.NodeAt([]int{c[1], c[0]})
	}
}

// BitReversal returns the bit-reversal pattern: the destination is the
// source's index with its bits reversed within the smallest power of two
// covering n. Sources whose reversal falls outside the network send to
// themselves (skipped).
func BitReversal(n int) Pattern {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	return func(src topology.NodeID, _ *rand.Rand) topology.NodeID {
		v := uint(src)
		r := uint(0)
		for i := 0; i < bits; i++ {
			r = r<<1 | (v>>i)&1
		}
		if int(r) >= n {
			return src
		}
		return topology.NodeID(r)
	}
}

// Hotspot returns a pattern that sends to the hot node with probability
// frac and uniformly otherwise.
func Hotspot(n int, hot topology.NodeID, frac float64) Pattern {
	if frac < 0 || frac > 1 {
		panic("traffic: hotspot fraction must be in [0,1]")
	}
	return func(src topology.NodeID, rng *rand.Rand) topology.NodeID {
		if rng.Float64() < frac {
			return hot
		}
		return topology.NodeID(rng.Intn(n))
	}
}

// Permutation returns the fixed-permutation pattern: node i always sends
// to perm[i]. The slice is captured; len(perm) must cover every node.
func Permutation(perm []topology.NodeID) Pattern {
	return func(src topology.NodeID, _ *rand.Rand) topology.NodeID {
		return perm[src]
	}
}

// Workload describes a synthetic load on a routed network.
type Workload struct {
	Alg     routing.Algorithm
	Pattern Pattern
	// Rate is the per-node, per-cycle injection probability in (0, 1].
	Rate float64
	// Length is the message length in flits.
	Length int
	// Duration is the number of cycles during which sources inject.
	Duration int
	// Seed makes the workload deterministic.
	Seed int64
}

// Messages samples the workload into a concrete message list. Messages
// whose pattern destination equals their source are skipped; a pair for
// which the routing algorithm defines no path is an error.
func (w Workload) Messages() ([]sim.MessageSpec, error) {
	return sample(w.Alg.Network(), w.Pattern, w.Rate, w.Length, w.Duration, w.Seed,
		func(src, dst topology.NodeID, t int) (sim.MessageSpec, error) {
			path := w.Alg.Path(src, dst)
			if path == nil {
				return sim.MessageSpec{}, fmt.Errorf("traffic: no path %d -> %d under %s", src, dst, w.Alg.Name())
			}
			return sim.MessageSpec{
				Src: src, Dst: dst, Length: w.Length,
				Path:     path,
				InjectAt: t,
				Label:    fmt.Sprintf("t%d.s%d", t, src),
			}, nil
		})
}

// Run samples the workload, simulates it to completion (or maxCycles) and
// returns the simulator statistics together with the outcome.
func (w Workload) Run(cfg sim.Config, maxCycles int) (sim.Stats, sim.Outcome, error) {
	return run(w.Alg.Network(), w.Messages, cfg, maxCycles)
}

// sample is the Bernoulli batch sampler behind Workload and
// AdaptiveWorkload: in each of the first duration cycles, each node
// injects with probability rate, to a destination drawn from pattern;
// a draw of the node itself injects nothing. spec builds the message of
// each accepted (source, destination, cycle).
func sample(net *topology.Network, pattern Pattern, rate float64, length, duration int, seed int64,
	spec func(src, dst topology.NodeID, t int) (sim.MessageSpec, error)) ([]sim.MessageSpec, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("traffic: rate %v out of (0,1]", rate)
	}
	if length < 1 {
		return nil, fmt.Errorf("traffic: length %d < 1", length)
	}
	if duration < 1 {
		return nil, fmt.Errorf("traffic: duration %d < 1", duration)
	}
	rng := rand.New(rand.NewSource(seed))
	var msgs []sim.MessageSpec
	n := net.NumNodes()
	for t := 0; t < duration; t++ {
		for s := 0; s < n; s++ {
			if rng.Float64() >= rate {
				continue
			}
			src := topology.NodeID(s)
			dst := pattern(src, rng)
			if dst == src {
				continue
			}
			m, err := spec(src, dst, t)
			if err != nil {
				return nil, err
			}
			msgs = append(msgs, m)
		}
	}
	return msgs, nil
}

// run samples a batch workload with messages, simulates it on net to
// completion (or maxCycles) and returns the statistics together with the
// outcome.
func run(net *topology.Network, messages func() ([]sim.MessageSpec, error), cfg sim.Config, maxCycles int) (sim.Stats, sim.Outcome, error) {
	msgs, err := messages()
	if err != nil {
		return sim.Stats{}, sim.Outcome{}, err
	}
	s := sim.New(net, cfg)
	for _, m := range msgs {
		if _, err := s.Add(m); err != nil {
			return sim.Stats{}, sim.Outcome{}, err
		}
	}
	out := s.Run(maxCycles)
	return sim.Collect(s), out, nil
}
