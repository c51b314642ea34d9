package bench

import (
	"fmt"
	"io"
	"math"
)

// Metric is one measured value with its unit and the number of samples it
// summarizes.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// set records a metric; a value that is not a finite number (a
// percentile of no samples) leaves the metric unset.
func (m Metrics) set(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// MetricSpec names a metric and its unit.
type MetricSpec struct {
	Name string
	Unit string
}

// EndToEnd are the metrics a user of the verifier or simulator sees, as
// every untraced run reports them. Every name here is listed, with its
// bound, in BENCHMARK.json.
var EndToEnd = []MetricSpec{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"work_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// PerLayer are the metrics a traced run reports, for every workload; a
// layer the workload does not exercise reads 0.
var PerLayer = []MetricSpec{
	{"go.cpu_ms_per_op", "ms"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_mib_per_op", "MiB"},
	{"go.gc_cycles_per_op", "count"},
	{"go.heap_peak_mib", "MiB"},

	{"mcheck.states", "count"},
	{"mcheck.peak_visited", "count"},
	{"mcheck.levels", "count"},
	{"mcheck.frontier_peak", "count"},
	{"mcheck.states_pruned", "count"},
	{"mcheck.prune_ratio", "fraction"},
	{"mcheck.symmetry_group", "count"},
	{"mcheck.witness_depth", "count"},
	{"mcheck.visited_mib", "MiB"},
	{"mcheck.spill_mib", "MiB"},
	{"mcheck.spill_runs", "count"},
	{"mcheck.compactions", "count"},
	{"mcheck.ns_per_state", "ns"},
	{"mcheck.level_ms_p50", "ms"},
	{"mcheck.level_ms_max", "ms"},
	{"mcheck.replay_ms", "ms"},

	{"sim.copyfrom_ns", "ns"},
	{"sim.clone_ns", "ns"},
	{"sim.step_ns", "ns"},
	{"sim.encode_ns", "ns"},
	{"sim.decode_ns", "ns"},
	{"sim.encode_bytes", "bytes"},
	{"waitfor.find_ns", "ns"},

	{"traffic.ns_per_cycle", "ns"},
	{"traffic.ns_per_flit", "ns"},
	{"traffic.cells", "count"},
	{"traffic.sim_cycles", "count"},
	{"traffic.delivered_flits", "count"},
	{"traffic.saturation_rate", "msgs/node/cycle"},
	{"traffic.latency_p50_cycles", "cycles"},
	{"traffic.latency_p99_cycles", "cycles"},
	{"traffic.accepted_fraction", "fraction"},
	{"telemetry.frames", "count"},
	{"telemetry.window_kib", "KiB"},
	{"telemetry.slo_violations", "count"},

	{"routing.checkall_us", "us"},
	{"cdg.new_us", "us"},
	{"cdg.cycles_us", "us"},
	{"core.residual_ms", "ms"},
	{"cdg.cycles", "count"},
	{"core.configs", "count"},
	{"core.free", "count"},
	{"core.capable", "count"},
	{"core.unknown", "count"},

	{"cpu.self.sim", "fraction"},
	{"cpu.self.mcheck", "fraction"},
	{"cpu.self.waitfor", "fraction"},
	{"cpu.self.traffic", "fraction"},
	{"cpu.self.telemetry", "fraction"},
	{"cpu.self.routing", "fraction"},
	{"cpu.self.cdg", "fraction"},
	{"cpu.self.core", "fraction"},
	{"cpu.self.unreachable", "fraction"},
	{"cpu.self.topology", "fraction"},
	{"cpu.self.gc", "fraction"},
	{"cpu.self.other", "fraction"},
	{"cpu.cum.sim_copy", "fraction"},
	{"cpu.cum.sim_step", "fraction"},
	{"cpu.cum.sim_encode", "fraction"},
	{"cpu.cum.sim_decode", "fraction"},
	{"cpu.cum.residual", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// Result is one run of one workload in a fresh child process.
type Result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures holds the first few failure messages.
	Failures []string `json:"failures,omitempty"`
	// Digest hashes the outputs of the workload's leading DigestOps ops;
	// empty when the run did fewer ops than that.
	Digest  string  `json:"digest,omitempty"`
	Metrics Metrics `json:"metrics"`
}

const maxFailures = 5

func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Select returns the named metrics of m, reading 0 in the listed unit for
// any the run did not produce.
func Select(m Metrics, specs []MetricSpec) Metrics {
	out := Metrics{}
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			v = Metric{Unit: s.Unit}
		}
		out[s.Name] = v
	}
	return out
}

// PrintTable writes one line per metric: workload, name, value, unit and
// the samples behind it, in the order specs lists them.
func PrintTable(w io.Writer, workload string, m Metrics, specs []MetricSpec) {
	for _, s := range specs {
		n := s.Name
		v, ok := m[n]
		if !ok {
			continue
		}
		note := ""
		switch {
		case n == "op_ms_p50":
			note = SampleNote(50, v.Samples)
		case n == "op_ms_p90":
			note = SampleNote(90, v.Samples)
		case v.Samples > 0:
			note = fmt.Sprintf("n=%d", v.Samples)
		}
		fmt.Fprintf(w, "%-16s %-28s %14.6g %-16s %s\n", workload, n, v.Value, v.Unit, note)
	}
}
