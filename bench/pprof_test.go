package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// pbWriter encodes the protobuf subset a pprof profile uses.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(field int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(field int, data []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(data)))
	w.b = append(w.b, data...)
}

func (w *pbWriter) packed(field int, vs ...uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	w.bytes(field, in)
}

// handProfile builds a CPU profile by hand: functions, locations (one
// with an inlined frame) and weighted samples, with location IDs both
// packed and unpacked as runtime/pprof writes them.
func handProfile() []byte {
	funcs := []string{
		"repro/internal/sim.(*Sim).step",                          // 1
		"repro/internal/sim.(*Sim).Step",                          // 2
		"repro/internal/mcheck.(*searchWorker).expand",            // 3
		"runtime.mallocgc",                                        // 4
		"runtime.gcDrain",                                         // 5
		"runtime.gcBgMarkWorker",                                  // 6
		"repro/internal/obsv/telemetry.(*Collector).FinishSample", // 7
		"repro/bench.(*searchInstance).Run",                       // 8
		"repro/internal/sim.(*Sim).EncodeTo",                      // 9
		"repro/internal/papernets.Build",                          // 10
	}
	var p pbWriter
	strs := append([]string{"", "samples", "count"}, funcs...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	for i := range funcs {
		var f pbWriter
		f.varint(1, uint64(i+1))
		f.varint(2, uint64(i+3)) // string index
		p.bytes(5, f.b)
	}
	// Location ID → function IDs, innermost first. Location 1 is step
	// inlined into Step.
	locs := [][]uint64{1: {1, 2}, 2: {3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}, 7: {8}, 8: {9}, 9: {10}}
	for id := 1; id < len(locs); id++ {
		var l pbWriter
		l.varint(1, uint64(id))
		for _, fn := range locs[id] {
			var line pbWriter
			line.varint(1, fn)
			line.varint(2, 42)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	sample := func(weight uint64, locIDs ...uint64) {
		var s pbWriter
		if len(locIDs) > 2 {
			s.packed(1, locIDs...)
		} else {
			for _, id := range locIDs {
				s.varint(1, id)
			}
		}
		s.packed(2, weight, weight*10_000_000)
		p.bytes(2, s.b)
	}
	sample(3, 3, 1, 2) // mallocgc < step/Step < expand
	sample(2, 2, 7)    // expand < bench
	sample(1, 4, 5)    // gcDrain < gcBgMarkWorker
	sample(1, 6, 1)    // FinishSample < step/Step
	sample(2, 8, 2)    // EncodeTo < expand
	sample(1, 9, 7)    // papernets.Build < bench
	sample(1, 3)       // runtime only
	return p.b
}

func TestParseHandBuiltProfile(t *testing.T) {
	raw := handProfile()
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	for name, data := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
		samples, err := ParseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(samples) != 7 {
			t.Fatalf("%s: %d samples, want 7", name, len(samples))
		}
		want := []string{"runtime.mallocgc", "repro/internal/sim.(*Sim).step", "repro/internal/sim.(*Sim).Step", "repro/internal/mcheck.(*searchWorker).expand"}
		if !reflect.DeepEqual(samples[0].Stack, want) || samples[0].Weight != 3 {
			t.Errorf("%s: sample 0 = %+v, want weight 3 stack %v", name, samples[0], want)
		}
	}
	if _, err := ParseProfile(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestCPUSharesBucketing(t *testing.T) {
	samples, err := ParseProfile(handProfile())
	if err != nil {
		t.Fatal(err)
	}
	self, cum, total := CPUShares(samples)
	if total != 11 {
		t.Fatalf("total weight %d, want 11", total)
	}
	wantSelf := map[string]float64{"sim": 5, "mcheck": 2, "gc": 1, "telemetry": 1, "other": 2}
	wantCum := map[string]float64{"sim_step": 4, "sim_encode": 2, "residual": 5}
	check := func(kind string, got, want map[string]float64) {
		sum := 0.0
		for k, v := range got {
			sum += v
			if math.Abs(v-want[k]/11) > 1e-12 {
				t.Errorf("%s[%s] = %g, want %g/11", kind, k, v, want[k])
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s shares sum to %g", kind, sum)
		}
	}
	check("self", self, wantSelf)
	check("cum", cum, wantCum)
	if len(self) != len(CPUPackages)+2 {
		t.Errorf("self has %d buckets, want every package plus gc and other", len(self))
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	if _, err := ParseProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}
