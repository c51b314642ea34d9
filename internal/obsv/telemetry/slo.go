// Per-source latency SLOs: a bank of latency sketches keyed by source
// node, plus a tiny declarative objective language ("p99<=500") evaluated
// against the bank. The loadtest engine feeds one bank per rate cell and
// reports violations in its JSON, its manifest and its
// loadtest_slo_violations_total counter.
package telemetry

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obsv"
)

// SLOObjective is one parsed latency objective: the p-th percentile must
// not exceed Bound cycles.
type SLOObjective struct {
	Spec  string // original text, e.g. "p99<=500"
	P     int    // percentile, 1..100
	Bound int    // latency bound in cycles
}

// ParseSLO parses a comma-separated objective list: "p99<=500" or
// "p50<=120,p99<=800". Percentiles are integers (the sketch quantile
// granularity); bounds are cycles.
func ParseSLO(s string) ([]SLOObjective, error) {
	var objs []SLOObjective
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rest, ok := strings.CutPrefix(part, "p")
		if !ok {
			return nil, fmt.Errorf("telemetry: SLO %q: want pNN<=BOUND", part)
		}
		pstr, bstr, ok := strings.Cut(rest, "<=")
		if !ok {
			return nil, fmt.Errorf("telemetry: SLO %q: want pNN<=BOUND", part)
		}
		p, err := strconv.Atoi(pstr)
		if err != nil || p < 1 || p > 100 {
			return nil, fmt.Errorf("telemetry: SLO %q: percentile must be an integer in 1..100", part)
		}
		bound, err := strconv.Atoi(bstr)
		if err != nil || bound < 0 {
			return nil, fmt.Errorf("telemetry: SLO %q: bound must be a non-negative integer", part)
		}
		objs = append(objs, SLOObjective{Spec: part, P: p, Bound: bound})
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("telemetry: empty SLO spec")
	}
	return objs, nil
}

// Bank holds one latency sketch per source plus the aggregate. Source
// sketches are allocated lazily on first observation, so idle sources
// stay free; the aggregate always exists. A sketch's buckets follow the
// largest latency it has seen (1 KiB below 256 cycles, about 268 KiB at
// most), so a bank's memory follows the traffic it observes.
type Bank struct {
	agg *obsv.Sketch
	src []*obsv.Sketch
}

// NewBank returns a bank for the given source-ID space.
func NewBank(sources int) *Bank {
	return &Bank{agg: obsv.NewSketch(), src: make([]*obsv.Sketch, sources)}
}

// Observe records one latency sample for source (out-of-range sources
// count only toward the aggregate).
func (b *Bank) Observe(source, v int) {
	b.agg.Add(v)
	if source >= 0 && source < len(b.src) {
		if b.src[source] == nil {
			b.src[source] = obsv.NewSketch()
		}
		b.src[source].Add(v)
	}
}

// Aggregate returns the all-sources sketch.
func (b *Bank) Aggregate() *obsv.Sketch { return b.agg }

// SLOResult is one evaluated objective row. Source -1 is the aggregate.
type SLOResult struct {
	Spec     string `json:"spec"`
	Source   int    `json:"source"`
	Observed int64  `json:"observed"`
	Bound    int64  `json:"bound"`
	Count    int64  `json:"count"`
	OK       bool   `json:"ok"`
}

// SLOReport is an evaluation of a bank against an objective list: one
// aggregate row per objective, plus a per-source row for every source
// that violates it (passing sources are elided to keep reports bounded
// on large networks — Violations counts only the rows present).
type SLOReport struct {
	Violations int         `json:"violations"`
	Results    []SLOResult `json:"results"`
}

// Evaluate checks every objective against the aggregate and each active
// source, in objective order then source order — deterministic for a
// deterministic bank.
func (b *Bank) Evaluate(objs []SLOObjective) *SLOReport {
	rep := &SLOReport{}
	for _, o := range objs {
		q := int64(b.agg.Quantile(o.P))
		ok := q <= int64(o.Bound) || b.agg.Count() == 0
		rep.Results = append(rep.Results, SLOResult{
			Spec: o.Spec, Source: -1, Observed: q,
			Bound: int64(o.Bound), Count: b.agg.Count(), OK: ok,
		})
		if !ok {
			rep.Violations++
		}
		for i, s := range b.src {
			if s == nil || s.Count() == 0 {
				continue
			}
			sq := int64(s.Quantile(o.P))
			if sq <= int64(o.Bound) {
				continue
			}
			rep.Results = append(rep.Results, SLOResult{
				Spec: o.Spec, Source: i, Observed: sq,
				Bound: int64(o.Bound), Count: s.Count(), OK: false,
			})
			rep.Violations++
		}
	}
	return rep
}
