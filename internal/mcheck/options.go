package mcheck

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
)

// VisitedBackend selects how the visited set of a search holds its
// entries. Both backends are the one exact store (visitedSet), so
// verdicts, state counts and witnesses are byte-identical across them at
// any worker count; they differ only in memory ceiling and constant
// factors.
type VisitedBackend int

const (
	// VisitedMem (the default) holds every encoding on the heap, with no
	// byte budget.
	VisitedMem VisitedBackend = iota
	// VisitedSpill gives the store a byte budget and a private directory
	// holding one segment file: shards that outgrow their budget append
	// sorted, prefix-compressed runs to the segment and are probed there
	// through fence indexes, behind 16-bit per-entry fingerprints that
	// answer most misses without a read. Compactions' dead bytes are
	// reclaimed by copying the live runs into a fresh segment. The
	// resident tables are pointer-free open-addressing arrays, as in
	// VisitedMem. With the encoded frontier batches the search's resident
	// set no longer scales with state count.
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
	// (runs, fence indexes and fingerprints excluded). 0 means
	// DefaultVisitedMemBudget. Ignored by the in-memory backend.
	MemBudget int64
	// SpillDir is the parent directory for the spill backend's private
	// segment directory. "" means the system temp directory.
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
	if opts.StallBudget < 0 {
		panic(fmt.Sprintf("mcheck: negative StallBudget %d", opts.StallBudget))
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = 2 * time.Second
	}
	opts.Reduction = effectiveReduction(sc, opts.Reduction)
	opts.Visited = normalizeVisitedConfig(opts.Visited)
	return opts
}
