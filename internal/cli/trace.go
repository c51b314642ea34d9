package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/mcheck"
	"repro/internal/obsv"
	"repro/internal/obsv/manifest"
	"repro/internal/obsv/serve"
	"repro/internal/obsv/telemetry"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ObsvFlags holds the observability flags shared by every command:
// -trace, -trace-format, -metrics, -progress, and the run-observatory
// trio -serve, -profile, -manifest. Register them with RegisterObsvFlags
// before flag.Parse, then Open an Observer.
type ObsvFlags struct {
	Trace             *string
	TraceFormat       *string
	Metrics           *string
	Progress          *bool
	Serve             *string
	Profile           *string
	Manifest          *string
	Telemetry         *int
	TelemetryAdaptive *bool
	TelemetryMax      *int
}

// RegisterObsvFlags registers the shared observability flags on the
// default flag set.
func RegisterObsvFlags() *ObsvFlags {
	return &ObsvFlags{
		Trace:       flag.String("trace", "", "write a deterministic trace of the run to this file"),
		TraceFormat: flag.String("trace-format", "", "trace format: jsonl, dot, chrome (default: inferred from the -trace extension, else jsonl)"),
		Metrics:     flag.String("metrics", "", "write a metrics snapshot to this file (.prom/.txt = Prometheus text format, else JSON)"),
		Progress:    flag.Bool("progress", false, "print periodic search progress to stderr"),
		Serve:       flag.String("serve", "", "serve /metrics, /progress, /healthz and /debug/pprof on this address while the run executes (e.g. :8080)"),
		Profile:     flag.String("profile", "", "write cpu.pprof and heap.pprof for the run into this directory"),
		Manifest:    flag.String("manifest", "", "write a run-manifest JSON (command, flags, verdicts, timings, peak RSS) to this file"),
		Telemetry: flag.Int("telemetry", 0,
			"sample per-channel telemetry every N cycles (0 = off)"),
		TelemetryAdaptive: flag.Bool("telemetry-adaptive", false,
			"adapt the telemetry stride to load: back off geometrically while the network is quiet, tighten to the base stride near saturation (deterministic)"),
		TelemetryMax: flag.Int("telemetry-max-stride", 0,
			"cap for the adaptive telemetry stride (0 = 16x the base stride)"),
	}
}

// Enabled reports whether any observability output was requested.
func (f *ObsvFlags) Enabled() bool {
	return *f.Trace != "" || *f.Metrics != ""
}

// Observer bundles the sinks opened from a set of ObsvFlags. Tracer is
// nil when no tracing or metrics were requested, so it can be handed to
// sim.SetTracer / SearchOptions.Tracer directly — the producers' nil
// checks keep the disabled path free. The same nil-when-off rule holds
// for the observatory: Server, Manifest and the profiler exist only when
// their flags were set, so an unobserved run pays nothing.
type Observer struct {
	// Tracer fans out to every requested sink; nil when none.
	Tracer obsv.Tracer
	// Metrics is the live registry behind -metrics and -serve; nil when
	// both are unset.
	Metrics *obsv.Registry
	// Server is the live HTTP observatory behind -serve; nil when unset.
	Server *serve.Server
	// Manifest accumulates the invocation's run manifest behind -manifest;
	// nil when unset. Close writes it.
	Manifest *manifest.Builder
	// TelemetryStride is the -telemetry sampling stride (0 when off).
	// Build per-run collectors from it with NewTelemetry;
	// TelemetryAdaptive and TelemetryMaxStride carry the adaptive-stride
	// knobs into those collectors.
	TelemetryStride    int
	TelemetryAdaptive  bool
	TelemetryMaxStride int

	progress    bool
	profiler    *manifest.Profiler
	metricsPath string
	closers     []io.Closer
	file        *os.File
}

// traceFormat resolves the output format from the explicit flag or the
// trace path's extension.
func traceFormat(format, path string) (string, error) {
	if format != "" {
		switch format {
		case "jsonl", "dot", "chrome":
			return format, nil
		}
		return "", fmt.Errorf("cli: unknown trace format %q (want jsonl, dot, chrome)", format)
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".dot", ".gv":
		return "dot", nil
	case ".json":
		return "chrome", nil
	default:
		return "jsonl", nil
	}
}

// Open opens the sinks the flags request. name titles DOT snapshots;
// lanes (one per channel, see ChannelLanes) names the Chrome trace lanes.
// The caller must Close the observer to flush the trace and write the
// metrics snapshot.
func (f *ObsvFlags) Open(name string, lanes []string) (*Observer, error) {
	o := &Observer{
		progress:           *f.Progress,
		TelemetryStride:    *f.Telemetry,
		TelemetryAdaptive:  *f.TelemetryAdaptive,
		TelemetryMaxStride: *f.TelemetryMax,
	}
	var tracers obsv.Multi
	if *f.Metrics != "" || *f.Serve != "" {
		// -serve needs a live registry for /metrics even when no snapshot
		// file was requested.
		o.Metrics = obsv.NewRegistry()
		o.metricsPath = *f.Metrics
		tracers = append(tracers, obsv.NewMetricsSink(o.Metrics))
	}
	if *f.Trace != "" {
		format, err := traceFormat(*f.TraceFormat, *f.Trace)
		if err != nil {
			return nil, err
		}
		file, err := os.Create(*f.Trace)
		if err != nil {
			return nil, fmt.Errorf("cli: -trace: %w", err)
		}
		o.file = file
		switch format {
		case "jsonl":
			s := obsv.NewJSONL(file)
			tracers = append(tracers, s)
			o.closers = append(o.closers, s)
		case "dot":
			s := obsv.NewDOT(file, name)
			tracers = append(tracers, s)
			o.closers = append(o.closers, s)
		case "chrome":
			s := obsv.NewChromeTrace(file, lanes)
			tracers = append(tracers, s)
			o.closers = append(o.closers, s)
		}
	}
	switch len(tracers) {
	case 0:
	case 1:
		o.Tracer = tracers[0]
	default:
		o.Tracer = tracers
	}
	if *f.Serve != "" {
		o.Server = serve.New(o.Metrics)
		addr, err := o.Server.Start(*f.Serve)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "observatory: listening on http://%s\n", addr)
	}
	if *f.Profile != "" {
		p, err := manifest.StartProfiles(*f.Profile)
		if err != nil {
			return nil, err
		}
		o.profiler = p
	}
	if *f.Manifest != "" {
		o.Manifest = manifest.NewBuilder(*f.Manifest, filepath.Base(os.Args[0]), os.Args[1:])
		// Open runs after flag.Parse in every command, so the explicitly
		// set flags are known here.
		o.Manifest.CaptureFlags(flag.CommandLine)
	}
	return o, nil
}

// Close flushes and closes the trace sink, writes the metrics snapshot,
// stops the profiler, writes the run manifest, and stops the HTTP server
// — in that order, so the manifest can record the profile paths and a
// last scrape can still see final metrics.
func (o *Observer) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range o.closers {
		keep(c.Close())
	}
	if o.file != nil {
		keep(o.file.Close())
	}
	if o.Metrics != nil && o.metricsPath != "" {
		file, err := os.Create(o.metricsPath)
		keep(err)
		if err == nil {
			switch strings.ToLower(filepath.Ext(o.metricsPath)) {
			case ".prom", ".txt":
				err = o.Metrics.WritePrometheus(file)
			default:
				err = o.Metrics.WriteJSON(file)
			}
			keep(err)
			keep(file.Close())
		}
	}
	if o.profiler != nil {
		cpu, heap, err := o.profiler.Stop()
		keep(err)
		o.profiler = nil
		if o.Manifest != nil {
			o.Manifest.SetProfiles(cpu, heap)
		}
	}
	if o.Manifest != nil {
		keep(o.Manifest.Write())
	}
	if o.Server != nil {
		keep(o.Server.Close())
	}
	return first
}

// Publish sends a snapshot to the live /progress hub. No-op when -serve
// is off (or the observer is nil), so producers can call it
// unconditionally.
func (o *Observer) Publish(s serve.Snapshot) {
	if o == nil || o.Server == nil {
		return
	}
	o.Server.Hub().PublishSnapshot(s)
}

// RecordRun appends one run to the manifest. No-op when -manifest is off.
func (o *Observer) RecordRun(r manifest.Run) {
	if o == nil || o.Manifest == nil {
		return
	}
	o.Manifest.AddRun(r)
}

// RegisterReductionFlag registers the shared -reduction flag on the
// default flag set. Resolve the parsed value with cli.Reduction after
// flag.Parse.
func RegisterReductionFlag() *string {
	return flag.String("reduction", "none",
		"state-space reduction for exhaustive searches: none, por, sym, all (verdict-preserving)")
}

// Reduction parses a -reduction flag value, exiting with a usage error
// on an unknown mode.
func Reduction(value string) mcheck.Reduction {
	r, err := mcheck.ParseReduction(value)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return r
}

// SearchOptions overlays the observer onto a search's options: the
// tracer and metrics registry, and progress reporting under name —
// stderr with -progress, the live /progress stream with -serve. The
// result reports through the observer with SearchDone.
func (o *Observer) SearchOptions(name string, opts mcheck.SearchOptions) mcheck.SearchOptions {
	if o == nil {
		return opts
	}
	opts.Tracer = o.Tracer
	opts.Metrics = o.Metrics
	opts.Progress = o.searchProgress(name)
	if o.Server != nil {
		// A fast interval, so even sub-second searches surface live
		// snapshots to pollers; otherwise the engine's stderr-friendly
		// default stands.
		opts.ProgressEvery = 100 * time.Millisecond
	}
	return opts
}

// searchProgress returns the periodic-progress callback for the named
// search: it prints to stderr when -progress is set and feeds the live
// /progress endpoint when -serve is on. Nil when both are off, so the
// search engine skips progress bookkeeping entirely. The callback carries
// wall-clock rates and is deliberately kept out of the deterministic
// trace.
func (o *Observer) searchProgress(name string) func(mcheck.ProgressInfo) {
	live := o.Server != nil
	if !live && !o.progress {
		return nil
	}
	return func(p mcheck.ProgressInfo) {
		if o.progress {
			spill := ""
			if p.SpillBytes > 0 {
				spill = fmt.Sprintf(" (+%s spilled)", FormatBytes(p.SpillBytes))
			}
			fmt.Fprintf(os.Stderr, "search: level %d, frontier %d, %d states, %.0f states/sec, visited %s%s, %s\n",
				p.Level, p.Frontier, p.States, p.StatesPerSec, FormatBytes(p.VisitedBytes), spill, p.Elapsed.Round(1e7))
		}
		if live {
			o.Publish(serve.Snapshot{
				Source:         "search",
				Name:           name,
				Level:          p.Level,
				Frontier:       p.Frontier,
				States:         p.States,
				StatesPerSec:   int64(p.StatesPerSec),
				ElapsedMS:      p.Elapsed.Milliseconds(),
				VisitedEntries: p.VisitedEntries,
				VisitedBytes:   p.VisitedBytes,
				SpillBytes:     p.SpillBytes,
			})
		}
	}
}

// SearchDone reports a finished search of sc: it marks the live
// /progress stream done with the verdict and appends the run to the
// manifest. Each step is a no-op when its flag is off.
func (o *Observer) SearchDone(name string, sc sim.Scenario, res mcheck.SearchResult) {
	o.Publish(serve.Snapshot{
		Source:       "search",
		Name:         name,
		States:       res.States,
		StatesPerSec: int64(res.StatesPerSec),
		ElapsedMS:    res.Elapsed.Milliseconds(),
		Done:         true,
		Verdict:      res.Verdict.String(),
	})
	o.RecordRun(searchRun(name, sc, res))
}

// searchRun condenses a finished search into a manifest run entry.
func searchRun(name string, sc sim.Scenario, res mcheck.SearchResult) manifest.Run {
	run := manifest.Run{
		Name:         name,
		Scenario:     sc.Name,
		TopologyHash: manifest.TopologyHash(sc.Net),
		Verdict:      res.Verdict.String(),
		States:       res.States,
		StatesPerSec: int64(res.StatesPerSec),
		PeakVisited:  res.PeakVisited,
		Workers:      res.Workers,
		ElapsedMS:    res.Elapsed.Milliseconds(),
		Warnings:     res.Warnings,
	}
	if res.Reduction != mcheck.RedNone {
		run.Reduction = res.Reduction.String()
		run.StatesPruned = res.StatesPruned
		run.ReductionRatio = manifest.ReductionRatio(res.States, res.StatesPruned)
	}
	// Visited-set accounting: the backend name is recorded only when a
	// non-default backend ran, the byte figures always (peak RSS lives at
	// the manifest top level; this is the structure's own accounting).
	if res.Visited.Backend != "" && res.Visited.Backend != "mem" {
		run.VisitedBackend = res.Visited.Backend
	}
	run.VisitedBytes = res.Visited.Bytes
	run.SpillBytes = res.Visited.SpillBytes
	run.SpillRuns = res.Visited.SpillRuns
	return run
}

// NewTelemetry builds the sampling-telemetry collector a run on net
// should attach with sim.SetTelemetry, from the -telemetry flags; nil
// when -telemetry is 0. When the live observatory or a metrics snapshot
// is on, each closing frame is bridged to the /telemetry endpoint and to
// telemetry_* gauges. Collectors are per-run: sweeps call this once per
// point/cell.
func (o *Observer) NewTelemetry(net *topology.Network) *telemetry.Collector {
	if o == nil || o.TelemetryStride <= 0 {
		return nil
	}
	col := telemetry.NewCollector(net.NumChannels(), telemetry.Config{
		Stride:    o.TelemetryStride,
		Adaptive:  o.TelemetryAdaptive,
		MaxStride: o.TelemetryMaxStride,
	})
	if o.Server != nil || o.Metrics != nil {
		srv, reg := o.Server, o.Metrics
		var buf []byte
		col.OnFrame = func(f *telemetry.Frame) {
			if srv != nil {
				buf = f.AppendJSON(buf[:0])
				srv.TelemetryHub().Publish(buf)
			}
			if reg != nil {
				reg.Gauge("telemetry_frames").Set(int64(f.Index + 1))
				reg.Gauge("telemetry_live_messages").Set(int64(f.Live))
				reg.Gauge("telemetry_frame_flits").Set(f.FlitsDelta)
			}
		}
	}
	return col
}

// PublishSLO renders the report and sends it to the live /telemetry/slo
// hub. No-op when -serve is off or the report is nil, so producers call
// it unconditionally after each evaluation.
func (o *Observer) PublishSLO(rep *telemetry.SLOReport) {
	if o == nil || o.Server == nil || rep == nil {
		return
	}
	o.Server.SLOHub().Publish(rep.AppendJSON(nil))
}

// TelemetrySummary flushes the collector's partial frame and returns its
// manifest summary block, with latency quantiles from lat when non-nil.
// Nil in, nil out, so callers can assign it to manifest.Run.Telemetry
// unconditionally.
func TelemetrySummary(col *telemetry.Collector, lat *obsv.Sketch) *telemetry.Summary {
	if col == nil {
		return nil
	}
	col.Flush()
	s := col.Summary(lat)
	return &s
}

// ChannelLanes names one Chrome-trace lane per channel of the network,
// in channel-ID order.
func ChannelLanes(net *topology.Network) []string {
	lanes := make([]string, net.NumChannels())
	for c := range lanes {
		ch := net.Channel(topology.ChannelID(c))
		lanes[c] = fmt.Sprintf("c%d %d->%d", c, ch.Src, ch.Dst)
	}
	return lanes
}
