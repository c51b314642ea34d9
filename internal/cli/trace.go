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

// ObsvFlags holds a command's observability flags. RegisterObsvFlags
// registers the four every command honours: -metrics, -serve, -profile
// and -manifest. The rest are opt-ins for the commands that honour them:
// WithTrace (-trace) where events are emitted, WithProgress (-progress)
// where searches run, WithTelemetry (-telemetry, -telemetry-adaptive)
// where a collector is attached. Register before flag.Parse, then Open
// an Observer; Open skips the flags that were not registered.
type ObsvFlags struct {
	fs                *flag.FlagSet
	metrics           *string
	serve             *string
	profile           *string
	manifest          *string
	trace             *string
	progress          *bool
	telemetry         *int
	telemetryAdaptive *bool
}

// RegisterObsvFlags registers the common observability flags on the
// default flag set.
func RegisterObsvFlags() *ObsvFlags {
	return registerObsvFlags(flag.CommandLine)
}

func registerObsvFlags(fs *flag.FlagSet) *ObsvFlags {
	return &ObsvFlags{
		fs:       fs,
		metrics:  fs.String("metrics", "", "write a metrics snapshot to this file (.prom/.txt = Prometheus text format, else JSON)"),
		serve:    fs.String("serve", "", "serve /metrics, /healthz and /debug/pprof on this address while the run executes (e.g. :8080)"),
		profile:  fs.String("profile", "", "write cpu.pprof and heap.pprof for the run into this directory"),
		manifest: fs.String("manifest", "", "write a run-manifest JSON (command, flags, verdicts, timings, peak RSS) to this file"),
	}
}

// WithTrace registers -trace and returns f.
func (f *ObsvFlags) WithTrace() *ObsvFlags {
	f.trace = f.fs.String("trace", "",
		"write a deterministic trace of the run to this file (.dot/.gv = wait-for DOT, .json = Chrome trace_event, else JSONL)")
	return f
}

// WithProgress registers -progress and returns f.
func (f *ObsvFlags) WithProgress() *ObsvFlags {
	f.progress = f.fs.Bool("progress", false, "print search progress to stderr every 2s, read from the metrics registry")
	return f
}

// WithTelemetry registers -telemetry and -telemetry-adaptive and returns f.
func (f *ObsvFlags) WithTelemetry() *ObsvFlags {
	f.telemetry = f.fs.Int("telemetry", 0,
		"sample per-channel telemetry every N cycles (0 = off)")
	f.telemetryAdaptive = f.fs.Bool("telemetry-adaptive", false,
		"adapt the telemetry stride to load: back off geometrically while the network is quiet, up to 16x the base stride, and tighten to the base stride near saturation (deterministic)")
	return f
}

// Check rejects flag values no run can honour: a -telemetry stride below
// 0. Commands call it after flag.Parse and report its error as a usage
// error (ExitUsage).
func (f *ObsvFlags) Check() error {
	if f.telemetry != nil && *f.telemetry < 0 {
		return fmt.Errorf("cli: -telemetry %d: the sampling stride must be at least 0 (0 = off)", *f.telemetry)
	}
	return nil
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
	// Metrics is the live registry behind -metrics, -serve and -progress;
	// nil when all three are unset.
	Metrics *obsv.Registry
	// Server is the live HTTP observatory behind -serve; nil when unset.
	Server *serve.Server
	// Manifest accumulates the invocation's run manifest behind -manifest;
	// nil when unset. Close writes it.
	Manifest *manifest.Builder

	// telemetryStride and telemetryAdaptive carry -telemetry and
	// -telemetry-adaptive into NewTelemetry's collectors.
	telemetryStride   int
	telemetryAdaptive bool
	progress          *progressPrinter // -progress; nil when unset
	profiler          *manifest.Profiler
	metricsPath       string
	closers           []io.Closer
	file              *os.File
}

// traceSink is an event sink that flushes on Close.
type traceSink interface {
	obsv.Tracer
	io.Closer
}

// newTraceSink picks the sink for a -trace path by its extension:
// .dot/.gv a wait-for DOT snapshot titled name, .json a Chrome
// trace_event file with the given lanes, anything else JSONL.
func newTraceSink(path string, w io.Writer, name string, lanes []string) traceSink {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".dot", ".gv":
		return obsv.NewDOT(w, name)
	case ".json":
		return obsv.NewChromeTrace(w, lanes)
	default:
		return obsv.NewJSONL(w)
	}
}

// Open opens the sinks the flags request. name titles DOT snapshots;
// lanes (one per channel, see ChannelLanes) names the Chrome trace lanes.
// The caller must Close the observer to flush the trace and write the
// metrics snapshot.
func (f *ObsvFlags) Open(name string, lanes []string) (*Observer, error) {
	o := &Observer{}
	if f.telemetry != nil {
		o.telemetryStride, o.telemetryAdaptive = *f.telemetry, *f.telemetryAdaptive
	}
	progress := f.progress != nil && *f.progress
	var tracers obsv.Multi
	if *f.metrics != "" || *f.serve != "" || progress {
		// -serve and -progress read a live registry even when no snapshot
		// file was requested.
		o.Metrics = obsv.NewRegistry()
		o.metricsPath = *f.metrics
	}
	if *f.metrics != "" || *f.serve != "" {
		// -progress reads only the search gauges, so alone it leaves the
		// simulations untraced.
		tracers = append(tracers, obsv.NewMetricsSink(o.Metrics))
	}
	if f.trace != nil && *f.trace != "" {
		file, err := os.Create(*f.trace)
		if err != nil {
			return nil, fmt.Errorf("cli: -trace: %w", err)
		}
		o.file = file
		s := newTraceSink(*f.trace, file, name, lanes)
		tracers = append(tracers, s)
		o.closers = append(o.closers, s)
	}
	switch len(tracers) {
	case 0:
	case 1:
		o.Tracer = tracers[0]
	default:
		o.Tracer = tracers
	}
	if *f.serve != "" {
		o.Server = serve.New(o.Metrics)
		addr, err := o.Server.Start(*f.serve)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "observatory: listening on http://%s\n", addr)
	}
	if *f.profile != "" {
		p, err := manifest.StartProfiles(*f.profile)
		if err != nil {
			return nil, err
		}
		o.profiler = p
	}
	if *f.manifest != "" {
		o.Manifest = manifest.NewBuilder(*f.manifest, filepath.Base(os.Args[0]), os.Args[1:])
		// Open runs after flag.Parse in every command, so the explicitly
		// set flags are known here.
		o.Manifest.CaptureFlags(f.fs)
	}
	if progress {
		o.progress = startProgress(o.Metrics, os.Stderr)
	}
	return o, nil
}

// Close stops the progress printer, flushes and closes the trace sink,
// writes the metrics snapshot, stops the profiler, writes the run
// manifest, and stops the HTTP server — in that order, so the manifest
// can record the profile paths and a last scrape can still see final
// metrics.
func (o *Observer) Close() error {
	if o.progress != nil {
		o.progress.stop()
	}
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
	ExitUsage(err)
	return r
}

// ExitUsage reports a bad invocation: with a non-nil err it prints err
// and exits with status 2, the commands' usage-error status.
func ExitUsage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// SearchOptions overlays the observer onto a search's options: the
// tracer and the metrics registry, whose mcheck_* gauges /metrics and
// -progress read. With -progress it also marks the start of the search,
// which the printed elapsed time and rate count from; the caller reports
// the result with SearchDone.
func (o *Observer) SearchOptions(opts mcheck.SearchOptions) mcheck.SearchOptions {
	if o == nil {
		return opts
	}
	opts.Tracer = o.Tracer
	opts.Metrics = o.Metrics
	if o.progress != nil {
		o.progress.begin(time.Now())
	}
	return opts
}

// SearchDone reports a finished search of sc: with -progress it prints
// the final progress line from the result, and it appends the run to the
// manifest. Each step is a no-op when its flag is off.
func (o *Observer) SearchDone(name string, sc sim.Scenario, res mcheck.SearchResult) {
	if o != nil && o.progress != nil {
		o.progress.searchDone(res)
	}
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
// when -telemetry is 0. When the registry is on, each closing frame sets
// the telemetry_* gauges (PublishFrame). Collectors are per-run: sweeps
// call this once per point/cell. Parallel points share the gauges, so
// while a sweep runs they show whichever point closed a frame last; a
// sweep that writes a snapshot publishes one chosen frame again at its
// end.
func (o *Observer) NewTelemetry(net *topology.Network) *telemetry.Collector {
	if o == nil || o.telemetryStride <= 0 {
		return nil
	}
	col := telemetry.NewCollector(net.NumChannels(), telemetry.Config{
		Stride:   o.telemetryStride,
		Adaptive: o.telemetryAdaptive,
	})
	if o.Metrics != nil {
		col.OnFrame = o.PublishFrame
	}
	return col
}

// PublishFrame sets the telemetry_* gauges from frame f. No-op without a
// registry.
func (o *Observer) PublishFrame(f *telemetry.Frame) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Gauge("telemetry_frames").Set(int64(f.Index + 1))
	o.Metrics.Gauge("telemetry_live_messages").Set(int64(f.Live))
	o.Metrics.Gauge("telemetry_frame_flits").Set(f.FlitsDelta)
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
