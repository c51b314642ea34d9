package mcheck

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
)

// normalizeParallelism resolves a worker-count option: non-positive means
// one worker per available CPU. Search and Sweep share this so the two
// engines can never drift on what "default parallelism" means.
func normalizeParallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// VisitedBackend selects the deduplication structure behind a search.
// Every backend is exact — verdicts, state counts and witnesses are
// byte-identical across backends at any worker count; they differ only in
// memory ceiling and constant factors. See visitedStore.
type VisitedBackend int

const (
	// VisitedMem is the in-memory reference backend (the default): a
	// sharded exact hash set holding every encoding on the heap.
	VisitedMem VisitedBackend = iota
	// VisitedSpill bounds resident memory: shards that outgrow their byte
	// budget spill sorted, prefix-compressed runs to disk and are probed
	// there via fence indexes. With the encoded frontier batches the
	// search's resident set no longer scales with state count.
	VisitedSpill
)

// String renders the backend the way the -visited CLI flag spells it.
func (b VisitedBackend) String() string {
	switch b {
	case VisitedMem:
		return "mem"
	case VisitedSpill:
		return "spill"
	}
	return fmt.Sprintf("VisitedBackend(%d)", int(b))
}

// DefaultVisitedMemBudget is the spill backend's total in-memory byte
// budget when VisitedConfig.MemBudget is zero.
const DefaultVisitedMemBudget = 256 << 20

// VisitedConfig configures the visited-set backend of a search.
type VisitedConfig struct {
	// Backend selects the implementation; the zero value is VisitedMem.
	Backend VisitedBackend
	// MemBudget caps the spill backend's resident bytes across all shards
	// (run files and fence indexes excluded). 0 means
	// DefaultVisitedMemBudget. Ignored by the in-memory backend.
	MemBudget int64
	// SpillDir is the parent directory for the spill backend's private
	// run-file directory. "" means the system temp directory.
	SpillDir string
}

// normalizeVisitedConfig resolves the defaulted fields.
func normalizeVisitedConfig(cfg VisitedConfig) VisitedConfig {
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = DefaultVisitedMemBudget
	}
	return cfg
}

// normalizeSearchOptions resolves every defaulted SearchOptions field and
// applies the scenario's reduction gating, so the engine proper can read
// the options verbatim and SearchResult can echo exactly what ran.
func normalizeSearchOptions(sc sim.Scenario, opts SearchOptions) SearchOptions {
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	opts.Parallelism = normalizeParallelism(opts.Parallelism)
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = 2 * time.Second
	}
	opts.Reduction = effectiveReduction(sc, opts.Reduction)
	opts.Visited = normalizeVisitedConfig(opts.Visited)
	return opts
}
