package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	// Work names what work_per_s counts.
	Work string
	// TracedOps is the fixed op count of a traced run, so its modelled
	// outputs repeat exactly.
	TracedOps int
	// Setup builds the workload's inputs from the seed. dir is a scratch
	// directory inside the checkout.
	Setup func(seed int64, dir string) (Instance, error)
}

// Instance is a workload set up for one seed.
type Instance interface {
	// Distinct is the number of distinct inputs; op i runs input
	// i % Distinct.
	Distinct() int
	// DigestOps is the number of leading ops the workload digest covers.
	DigestOps() int
	// Run executes op i — the only timed call. It records spans under
	// parent in sp, which is nil in an untraced run.
	Run(i int, sp *Spans, parent int) (any, error)
	// Check validates op i's output outside the timing and returns the
	// work it completed and a digest of its deterministic outputs. In a
	// traced run it may time further calls under parent in sp.
	Check(i int, out any, sp *Spans, parent int) (work float64, digest string, err error)
	// Layers adds a traced run's per-layer metrics, from the ops' outputs
	// (in op order) and the recorded spans.
	Layers(m Metrics, outs []any, spans []Span) error
}

// Workloads lists every workload in run order.
var Workloads = []*Workload{
	searchProof, searchSpill, searchWitness, simLoad, staticAnalyze,
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// PinnedDigests are the workload digests at the default seed (1). A run at
// seed 1 whose digest differs has produced different outputs. The two
// in-memory and spill searches agree: the visited backend never changes
// a verdict or a state count.
var PinnedDigests = map[string]string{
	"search-proof":   "79764a4f20020b85",
	"search-spill":   "79764a4f20020b85",
	"search-witness": "462ca977f131c4cf",
	"sim-load":       "091ab918ff32fa0b",
	"static-analyze": "d2d52e3bbb4382ae",
}

// digest hashes a rendering of deterministic outputs.
func digest(format string, args ...any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf(format, args...)))
	return hex.EncodeToString(h[:8])
}
