package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// ChildEnv is the environment variable that makes a benchmark binary (or
// the package's test binary) run as a child.
const ChildEnv = "BENCH_CHILD"

// Threads is the GOMAXPROCS every child runs with: two, or fewer on a
// smaller machine.
var Threads = min(2, runtime.NumCPU())

// minOps is the smallest op count of an untraced run: with 100 samples,
// ten lie beyond p90.
const minOps = 100

// RunConfig configures a benchmark run in the parent process.
type RunConfig struct {
	Exe      string // binary the children run; it must honour ChildEnv
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceDir string
	Dir      string // scratch directory inside the checkout
	// Quick runs about three ops per workload.
	Quick  bool
	Stderr io.Writer
}

// Run measures one workload in fresh child processes, one at a time. An
// untraced run reports the end-to-end metrics; a traced run runs an
// untraced reference child and a traced child of the same op count and
// reports the per-layer metrics.
func Run(cfg RunConfig, wl *Workload) (*Result, error) {
	child := ChildConfig{Workload: wl.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, MinOps: minOps, TraceDir: cfg.TraceDir, Dir: cfg.Dir}
	if cfg.Quick {
		child.Seconds, child.MinOps, child.MaxOps = 0, 3, 3
	}
	if !cfg.Trace {
		return spawn(cfg, child)
	}
	child.Seconds, child.MinOps = 0, wl.TracedOps
	if !cfg.Quick {
		child.MaxOps = wl.TracedOps
	}
	ref, err := spawn(cfg, child)
	if err != nil {
		return nil, err
	}
	child.Traced = true
	res, err := spawn(cfg, child)
	if err != nil {
		return nil, err
	}
	if base := ref.Metrics["op_ms_p50"].Value; base > 0 {
		res.Metrics.set("trace.overhead_frac", res.Metrics["op_ms_p50"].Value/base-1, "fraction", res.Metrics["op_ms_p50"].Samples)
	}
	res.Attempted += ref.Attempted
	res.Failed += ref.Failed
	for _, f := range ref.Failures {
		if len(res.Failures) < maxFailures {
			res.Failures = append(res.Failures, "untraced reference: "+f)
		}
	}
	return res, nil
}

// spawn runs one child and returns its result.
func spawn(cfg RunConfig, c ChildConfig) (*Result, error) {
	args := []string{
		"-workload", c.Workload,
		"-seed", strconv.FormatInt(c.Seed, 10),
		"-seconds", strconv.FormatFloat(c.Seconds, 'g', -1, 64),
		"-min-ops", strconv.Itoa(c.MinOps),
		"-max-ops", strconv.Itoa(c.MaxOps),
		"-traced=" + strconv.FormatBool(c.Traced),
		"-trace-dir", c.TraceDir,
		"-dir", c.Dir,
	}
	cmd := exec.Command(cfg.Exe, args...)
	cmd.Env = append(os.Environ(), ChildEnv+"=1", "GOMAXPROCS="+strconv.Itoa(Threads))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = cfg.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s child: %w", c.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("bench: %s child output: %w", c.Workload, err)
	}
	return &res, nil
}

func parseChildArgs(args []string) (ChildConfig, error) {
	var c ChildConfig
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	fs.StringVar(&c.Workload, "workload", "", "workload name")
	fs.Int64Var(&c.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&c.Seconds, "seconds", 0, "timed phase length")
	fs.IntVar(&c.MinOps, "min-ops", 0, "fewest timed ops")
	fs.IntVar(&c.MaxOps, "max-ops", 0, "most timed ops (0: no limit)")
	fs.BoolVar(&c.Traced, "traced", false, "traced run")
	fs.StringVar(&c.TraceDir, "trace-dir", "", "trace output directory")
	fs.StringVar(&c.Dir, "dir", "", "scratch directory")
	return c, fs.Parse(args)
}

// ResultsFile is what -o writes and compare reads.
type ResultsFile struct {
	Runs []Result `json:"runs"`
}

// summary is the one-line JSON summary printed last on standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Main is the benchmark command: it measures the selected workloads, or
// with "compare" first, compares two results files.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return CompareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: feeds input generation only")
	seconds := fs.Float64("seconds", 10, "length of each untraced run's timed phase, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for spans, CPU profiles and layers.json")
	dir := fs.String("dir", ".bench_build/scratch", "scratch directory (spill files)")
	runs := fs.Int("runs", 1, "measure every selected workload this many times; run r uses seed+r")
	outPath := fs.String("o", "", "write every run's result to this JSON file")
	quick := fs.Bool("quick", false, "about three ops per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wls := Workloads
	if *workload != "all" {
		wl, err := Lookup(*workload)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		wls = []*Workload{wl}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := RunConfig{Exe: exe, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, TraceDir: *traceDir, Dir: *dir, Quick: *quick, Stderr: stderr}
	specs := EndToEnd
	if cfg.Trace {
		specs = PerLayer
	}

	table := append(append([]MetricSpec(nil), specs...), MetricSpec{"failed_frac", "fraction"})
	var file ResultsFile
	line := summary{Metrics: map[string]summaryMetric{}}
	for run := 0; run < *runs; run++ {
		cfg.Seed = *seed + int64(run)
		for _, wl := range wls {
			res, err := Run(cfg, wl)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stderr, "# %s seed=%d run=%d work=%s attempted=%d failed=%d digest=%s\n", wl.Name, res.Seed, run, wl.Work, res.Attempted, res.Failed, res.Digest)
			for _, f := range res.Failures {
				fmt.Fprintf(stderr, "#   FAIL %s\n", f)
			}
			PrintTable(stderr, wl.Name, res.Metrics, table)
			file.Runs = append(file.Runs, *res)
			line.Attempted += res.Attempted
			line.Failed += res.Failed
			for k, v := range Select(res.Metrics, specs) {
				if len(wls) > 1 {
					k = wl.Name + "/" + k
				}
				line.Metrics[k] = summaryMetric{Value: v.Value, Unit: v.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	if *outPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}
