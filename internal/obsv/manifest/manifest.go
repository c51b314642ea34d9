// Package manifest turns every invocation of a cmd/ binary into an
// evidence artifact: a run-manifest JSON recording what was run (command,
// flags, scenario, topology hash), what came out (verdicts, state counts,
// reduction ratios, throughput), and what it cost (wall and CPU time,
// peak RSS, optional CPU/heap profiles). A checker run that cannot be
// inspected, attributed and compared is half a result — the manifest is
// the attribution half.
//
// Determinism: the JSON is emitted with a fixed field order (Go struct
// marshaling) and no map-ordered content, so two manifests of the same
// run differ only where the runs actually differed (timings, RSS). The
// manifest is written by Builder.Write at process end; with the -manifest
// flag unset no Builder exists and nothing here runs.
package manifest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/obsv/telemetry"
	"repro/internal/topology"
)

// Run is one unit of observed work inside an invocation: a search, a
// simulation or a sweep cell. Fields that do not apply
// stay at their zero value and are omitted from the JSON.
type Run struct {
	// Name identifies the run within the invocation (scenario name,
	// experiment ID, sweep cell).
	Name string `json:"name"`
	// Scenario is the scenario name when the run executed one.
	Scenario string `json:"scenario,omitempty"`
	// TopologyHash fingerprints the network the run executed on; two runs
	// with equal hashes ran on structurally identical networks.
	TopologyHash string `json:"topology_hash,omitempty"`
	// Verdict is the search verdict or simulation result.
	Verdict string `json:"verdict,omitempty"`
	// States / StatesPerSec / PeakVisited / Workers mirror
	// mcheck.SearchResult.
	States       int   `json:"states,omitempty"`
	StatesPerSec int64 `json:"states_per_sec,omitempty"`
	PeakVisited  int   `json:"peak_visited,omitempty"`
	Workers      int   `json:"workers,omitempty"`
	// Reduction stats: the mode that ran, candidates pruned, and the
	// pruned fraction of the candidate pool (pruned / (states + pruned)).
	Reduction      string  `json:"reduction,omitempty"`
	StatesPruned   int     `json:"states_pruned,omitempty"`
	ReductionRatio float64 `json:"reduction_ratio,omitempty"`
	// Visited-set backend accounting (exhaustive searches). VisitedBackend
	// is recorded only for non-default backends; the byte figures mirror
	// mcheck.VisitedStats.
	VisitedBackend string `json:"visited_backend,omitempty"`
	VisitedBytes   int64  `json:"visited_bytes,omitempty"`
	SpillBytes     int64  `json:"spill_bytes,omitempty"`
	SpillRuns      int    `json:"spill_runs,omitempty"`
	// ElapsedMS is the run's own wall time, when measured.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Warnings surfaced by the run (e.g. a panicking progress callback).
	Warnings []string `json:"warnings,omitempty"`
	// Telemetry summarizes the run's sampling telemetry when a collector
	// was attached (-telemetry): stride, frame and
	// sample counts, mean/peak channel utilization, the hottest channel,
	// and latency sketch quantiles.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
	// SLO is the per-source latency-SLO evaluation for the run, present
	// when the command ran with an -slo spec.
	SLO *telemetry.SLOReport `json:"slo,omitempty"`
}

// Profiles records where the -profile flag wrote pprof data.
type Profiles struct {
	CPU  string `json:"cpu,omitempty"`
	Heap string `json:"heap,omitempty"`
}

// Manifest is the on-disk document.
type Manifest struct {
	// Command is the binary's base name; Args its raw argument vector.
	Command string   `json:"command"`
	Args    []string `json:"args"`
	// Flags holds every flag explicitly set on the command line, in flag
	// name order.
	Flags map[string]string `json:"flags,omitempty"`
	// Start is the invocation's wall-clock start, RFC 3339.
	Start     string `json:"start"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	// Runs lists the invocation's observed work, in execution order.
	Runs []Run `json:"runs"`

	// Resource accounting for the whole invocation.
	WallTimeMS   int64 `json:"wall_time_ms"`
	CPUTimeMS    int64 `json:"cpu_time_ms"`
	PeakRSSBytes int64 `json:"peak_rss_bytes"`

	Profiles *Profiles `json:"profiles,omitempty"`
}

// Builder accumulates a Manifest over an invocation and writes it once at
// the end. Safe for concurrent AddRun.
type Builder struct {
	mu    sync.Mutex
	m     Manifest
	path  string
	start time.Time
}

// NewBuilder starts a manifest for the named command. path is where Write
// will put the JSON.
func NewBuilder(path, command string, args []string) *Builder {
	now := time.Now()
	return &Builder{
		path:  path,
		start: now,
		m: Manifest{
			Command:   command,
			Args:      args,
			Start:     now.UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
		},
	}
}

// CaptureFlags records every flag explicitly set on fs (call after
// fs.Parse). Defaulted flags are left out: the manifest records the
// operator's intent, and the binary's defaults are versioned with it.
func (b *Builder) CaptureFlags(fs *flag.FlagSet) {
	flags := make(map[string]string)
	fs.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.Flags = flags
}

// AddRun appends one observed run.
func (b *Builder) AddRun(r Run) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.Runs = append(b.m.Runs, r)
}

// SetProfiles records the pprof output paths.
func (b *Builder) SetProfiles(cpu, heap string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.Profiles = &Profiles{CPU: cpu, Heap: heap}
}

// Write stamps the invocation's wall/CPU/RSS totals and writes the
// manifest JSON (fixed field order, trailing newline) to the builder's
// path, creating parent directories as needed.
func (b *Builder) Write() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.WallTimeMS = time.Since(b.start).Milliseconds()
	b.m.CPUTimeMS = cpuTime().Milliseconds()
	b.m.PeakRSSBytes = peakRSSBytes()
	blob, err := json.MarshalIndent(&b.m, "", "  ")
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	blob = append(blob, '\n')
	if dir := filepath.Dir(b.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}
	if err := os.WriteFile(b.path, blob, 0o644); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

// Path returns where Write puts the manifest.
func (b *Builder) Path() string { return b.path }

// Load reads one manifest back.
func Load(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest: %s: %w", path, err)
	}
	return &m, nil
}

// ReductionRatio computes the pruned fraction of the successor-candidate
// pool: pruned / (states + pruned). 0 when nothing was pruned.
func ReductionRatio(states, pruned int) float64 {
	if pruned <= 0 || states+pruned <= 0 {
		return 0
	}
	return float64(pruned) / float64(states+pruned)
}

// TopologyHash fingerprints a network's structure: node count, channel
// count, and every channel's (src, dst) endpoint pair in channel-ID
// order, SHA-256-hashed and truncated to 16 hex digits. Structurally
// identical networks hash identically regardless of how they were built.
func TopologyHash(net *topology.Network) string {
	if net == nil {
		return ""
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(net.NumNodes())
	put(net.NumChannels())
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(topology.ChannelID(c))
		put(int(ch.Src))
		put(int(ch.Dst))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
