package traffic

import (
	"repro/internal/adaptive"
	"repro/internal/sim"
	"repro/internal/topology"
)

// AdaptiveWorkload is the adaptive-routing counterpart of Workload: the
// same Bernoulli injection process, routed per hop by an adaptive
// candidate function instead of fixed paths.
type AdaptiveWorkload struct {
	Alg      adaptive.Algorithm
	Pattern  Pattern
	Rate     float64
	Length   int
	Duration int
	Seed     int64
}

// Messages samples the workload into a concrete message list.
func (w AdaptiveWorkload) Messages() ([]sim.MessageSpec, error) {
	return sample(w.Alg.Net, w.Pattern, w.Rate, w.Length, w.Duration, w.Seed,
		func(src, dst topology.NodeID, t int) (sim.MessageSpec, error) {
			return w.Alg.Spec(src, dst, w.Length, t), nil
		})
}

// Run samples the workload, simulates it, and returns statistics and the
// outcome.
func (w AdaptiveWorkload) Run(cfg sim.Config, maxCycles int) (sim.Stats, sim.Outcome, error) {
	return run(w.Alg.Net, w.Messages, cfg, maxCycles)
}
