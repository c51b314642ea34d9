package routing_test

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestHubUnidirectionalRingPathsSimulate runs every pair of hub routing on
// unidirectional rings through sim.Add, which rejects a path that holds a
// channel twice. Walking to the hub and on from it goes round the ring
// past the source for every destination beyond the source, so those
// pairs must be routed directly.
func TestHubUnidirectionalRingPathsSimulate(t *testing.T) {
	for n := 3; n <= 7; n++ {
		net := topology.NewRing(n, false)
		for _, hub := range []topology.NodeID{0, topology.NodeID(n - 1)} {
			alg := routing.Hub(net, hub)
			s := sim.New(net, sim.Config{})
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					p := alg.Path(topology.NodeID(src), topology.NodeID(dst))
					spec := sim.MessageSpec{Src: topology.NodeID(src), Dst: topology.NodeID(dst), Length: 2, Path: p}
					if _, err := s.Add(spec); err != nil {
						t.Fatalf("%s: %v", alg.Name(), err)
					}
				}
			}
		}
	}
}
