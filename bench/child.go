package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// ChildConfig configures one measured run of one workload, inside the
// child process.
type ChildConfig struct {
	Workload string
	Seed     int64
	// Timed ops run until both Seconds have passed and MinOps are done,
	// or MaxOps are done (0: no limit).
	Seconds float64
	MinOps  int
	MaxOps  int
	// Traced runs the workload's fixed TracedOps (capped by MaxOps) with
	// spans and a CPU profile, and writes them to TraceDir.
	Traced   bool
	TraceDir string
	// Dir is a scratch directory inside the checkout.
	Dir string
}

// maxTimed caps the timed phase, so a run on a much slower machine still
// ends in time; the op count it reached is reported with every timing.
const maxTimed = 120 * time.Second

// setupEvery spaces the rebuilds behind setup_s through the timed phase,
// so its median samples the host over the same window as the ops.
const setupEvery = 500 * time.Millisecond

// RunChild measures one workload in this process.
func RunChild(cfg ChildConfig) (*Result, error) {
	wl, err := Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: scratch dir: %w", err)
	}
	res := &Result{Workload: wl.Name, Seed: cfg.Seed, Traced: cfg.Traced, Metrics: Metrics{}}

	build := func() (Instance, float64, error) {
		runtime.GC()
		t := time.Now()
		in, err := wl.Setup(cfg.Seed, cfg.Dir)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: %s setup: %w", wl.Name, err)
		}
		return in, time.Since(t).Seconds(), nil
	}
	inst, d, err := build()
	if err != nil {
		return nil, err
	}
	setups := []float64{d}

	c := &checker{inst: inst, res: res, first: make([]string, inst.Distinct())}
	// Warm-up: one untimed op, checked like the rest.
	runtime.GC()
	if out, err := inst.Run(0, nil, -1); err != nil {
		res.Attempted++
		res.fail("warm-up op: %v", err)
	} else {
		c.check(0, out, nil, -1, false)
	}

	if cfg.Traced {
		err = runTraced(cfg, wl, c)
	} else {
		setups, err = runTimed(cfg, c, build, setups)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics.set("setup_s", Median(setups), "s", len(setups))
	c.finish(cfg.Seed)
	res.Metrics.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "fraction", res.Attempted)
	return res, nil
}

// checker validates op outputs: each against the workload's own checks,
// and every repeat of an input against that input's first output.
type checker struct {
	inst  Instance
	res   *Result
	first []string // first output digest per distinct input
	canon []string // digests of the leading DigestOps timed ops
}

func (c *checker) check(i int, out any, sp *Spans, parent int, timed bool) float64 {
	c.res.Attempted++
	work, dig, err := c.inst.Check(i, out, sp, parent)
	if err != nil {
		c.res.fail("op %d: %v", i, err)
		return work
	}
	k := i % len(c.first)
	switch {
	case c.first[k] == "":
		c.first[k] = dig
	case c.first[k] != dig:
		c.res.fail("op %d: output digest %s differs from %s on the same input", i, dig, c.first[k])
	}
	if timed && i < c.inst.DigestOps() {
		c.canon = append(c.canon, dig)
	}
	return work
}

// finish sets the workload digest and checks it against the pinned one.
func (c *checker) finish(seed int64) {
	if len(c.canon) < c.inst.DigestOps() {
		return
	}
	c.res.Digest = digest("%s", strings.Join(c.canon, ","))
	if want := PinnedDigests[c.res.Workload]; seed == 1 && want != "" && want != c.res.Digest {
		// Every op the digest covers produced some wrong output.
		for i := 0; i < len(c.canon); i++ {
			c.res.fail("workload digest %s, pinned %s at seed 1", c.res.Digest, want)
		}
	}
}

// runTimed is the untraced measurement: every op starts from a collected
// heap, and only the op itself is timed. Where the kernel allows, the
// resident-set high-water mark is reset before each op, so each op's own
// peak is measured and one outlier op cannot set the run's value. Every
// setupEvery it times another build of the inputs, appended to setups.
func runTimed(cfg ChildConfig, c *checker, build func() (Instance, float64, error), setups []float64) ([]float64, error) {
	var times, rss []float64
	var work float64
	var busy time.Duration
	perOpRSS := resetPeakRSS() == nil
	seconds := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	lastSetup := start
	for i := 0; cfg.MaxOps <= 0 || i < cfg.MaxOps; i++ {
		if el := time.Since(start); (i >= cfg.MinOps && el >= seconds) || (i > 0 && el >= maxTimed) {
			break
		}
		if time.Since(lastSetup) >= setupEvery {
			_, d, err := build()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
			lastSetup = time.Now()
		}
		runtime.GC()
		if perOpRSS {
			perOpRSS = resetPeakRSS() == nil
		}
		t := time.Now()
		out, err := c.inst.Run(i, nil, -1)
		d := time.Since(t)
		if perOpRSS {
			if peak, err := peakRSS(); err == nil {
				rss = append(rss, float64(peak)/(1<<20))
			}
		}
		if err != nil {
			c.res.Attempted++
			c.res.fail("op %d: %v", i, err)
			continue
		}
		times = append(times, float64(d)/1e6)
		busy += d
		work += c.check(i, out, nil, -1, true)
	}
	m := c.res.Metrics
	m.set("op_ms_p50", Percentile(times, 50), "ms", len(times))
	m.set("op_ms_p90", Percentile(times, 90), "ms", len(times))
	if busy > 0 {
		m.set("work_per_s", work/busy.Seconds(), "1/s", len(times))
	}
	m.set("peak_rss_mib", Median(rss), "MiB", len(rss))
	return setups, nil
}

// runTraced runs the workload's fixed traced op count with spans, a CPU
// profile and runtime counters, then checks the outputs (outside the
// profile) and derives the per-layer metrics.
func runTraced(cfg ChildConfig, wl *Workload, c *checker) error {
	n := wl.TracedOps
	if cfg.MaxOps > 0 {
		n = min(n, cfg.MaxOps)
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return fmt.Errorf("bench: trace dir: %w", err)
	}
	sp := NewSpans()
	root := sp.Begin("workload", -1)
	outs := make([]any, 0, n)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	heap := startHeapSampler(time.Millisecond)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		heap.stop()
		return fmt.Errorf("bench: cpu profile: %w", err)
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		sp.SetOp(i)
		id := sp.Begin("op", root)
		out, err := c.inst.Run(i, sp, id)
		sp.End(id)
		if err != nil {
			c.res.Attempted++
			c.res.fail("op %d: %v", i, err)
			out = nil
		}
		outs = append(outs, out)
	}
	pprof.StopCPUProfile()
	heapPeak := heap.stop()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)

	for i, out := range outs {
		if out == nil {
			continue
		}
		sp.SetOp(i)
		id := sp.Begin("check", root)
		c.check(i, out, sp, id, true)
		sp.End(id)
	}
	sp.SetOp(-1)
	sp.End(root)
	spans := sp.All()

	m := c.res.Metrics
	var opTimes []float64
	for _, s := range spans {
		if s.Name == "op" {
			opTimes = append(opTimes, float64(s.End-s.Start)/1e6)
		}
	}
	m.set("op_ms_p50", Percentile(opTimes, 50), "ms", len(opTimes))
	per := float64(max(n, 1))
	m.set("go.cpu_ms_per_op", float64(cpu)/1e6/per, "ms", n)
	m.set("go.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/per, "count", n)
	m.set("go.alloc_mib_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/per, "MiB", n)
	// One collection per op is the benchmark's own runtime.GC.
	m.set("go.gc_cycles_per_op", float64(max(int(ms1.NumGC-ms0.NumGC)-n, 0))/per, "count", n)
	m.set("go.heap_peak_mib", float64(heapPeak)/(1<<20), "MiB", n)
	if err := c.inst.Layers(m, outs, spans); err != nil {
		c.res.fail("layers: %v", err)
	}

	samples, err := ParseProfile(prof.Bytes())
	if err != nil {
		return fmt.Errorf("bench: cpu profile: %w", err)
	}
	self, cum, weight := CPUShares(samples)
	for k, v := range self {
		m.set("cpu.self."+k, v, "fraction", int(weight))
	}
	for k, v := range cum {
		m.set("cpu.cum."+k, v, "fraction", int(weight))
	}
	return writeTraceFiles(cfg.TraceDir, wl.Name, spans, prof.Bytes(), self, cum)
}

// writeTraceFiles writes DIR/<workload>.trace.json and .cpu.pprof, and
// merges the workload's attribution into DIR/layers.json.
func writeTraceFiles(dir, name string, spans []Span, prof []byte, self, cum map[string]float64) error {
	if err := os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), prof, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("bench: trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: trace: %w", err)
	}
	path := filepath.Join(dir, "layers.json")
	all := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("bench: %w", err)
	}
	all[name] = map[string]any{
		// Self time of each layer's spans as a share of op time; the
		// residual is op time no layer span covers.
		"span_self_share": LayerShares(spans, "op"),
		"cpu_self_share":  self,
		"cpu_cum_share":   cum,
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// heapSampler polls the live heap size until stopped, keeping the peak.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64 // written by the sampling goroutine, read after done closes
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak heap bytes seen.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}

// ChildMain is the child process's entry point: it parses the flags the
// parent passes, runs the workload and writes the Result as one JSON line
// to stdout.
func ChildMain(args []string, stdout io.Writer) int {
	cfg, err := parseChildArgs(args)
	if err == nil {
		var res *Result
		if res, err = RunChild(cfg); err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
