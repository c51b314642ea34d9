package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ProfileSample is one sample of a CPU profile: its weight (the sample
// count) and its call stack as function names, innermost first, with
// inlined frames expanded.
type ProfileSample struct {
	Weight int64
	Stack  []string
}

// ParseProfile decodes the parts of a pprof profile (gzipped or raw
// protobuf, as runtime/pprof writes it) that CPU attribution needs.
func ParseProfile(data []byte) ([]ProfileSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location ID → function IDs, innermost first
		funcNames = map[uint64]int64{}    // function ID → string table index
		strs      []string
	)
	err := pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			var values []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(&s.locs, v, b)
				case 2:
					return pbRepeated(&values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.weight = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	out := make([]ProfileSample, len(samples))
	for i, s := range samples {
		out[i].Weight = s.weight
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "?"
				if idx, ok := funcNames[fn]; ok && idx >= 0 && idx < int64(len(strs)) {
					name = strs[idx]
				}
				out[i].Stack = append(out[i].Stack, name)
			}
		}
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls fn for every field of one protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field given either unpacked (one
// value v, b nil) or packed (b holds the varints).
func pbRepeated(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// CPUPackages are the repository packages CPU self time is bucketed into.
var CPUPackages = []string{"sim", "mcheck", "waitfor", "traffic", "telemetry", "routing", "cdg", "core", "unreachable", "topology"}

// gcFrames are the runtime functions that make a sample garbage-collector
// work: background mark workers, sweeping and scavenging, and mark assists
// charged to allocating goroutines.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// simBoundary maps sim's exported entry points to the cpu.cum bucket that
// time below them is charged to.
var simBoundary = map[string]string{
	"repro/internal/sim.(*Sim).CopyFrom":          "sim_copy",
	"repro/internal/sim.(*Sim).Clone":             "sim_copy",
	"repro/internal/sim.(*Sim).Step":              "sim_step",
	"repro/internal/sim.(*Sim).StepWithPicks":     "sim_step",
	"repro/internal/sim.(*Sim).EncodeTo":          "sim_encode",
	"repro/internal/sim.(*Sim).CanonicalEncodeTo": "sim_encode",
	"repro/internal/sim.(*Sim).DecodeFrom":        "sim_decode",
}

// funcPackage returns the import path of a fully qualified function name
// ("repro/internal/sim.(*Sim).Step" → "repro/internal/sim").
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// SelfBucket names the bucket a sample's CPU time is charged to: "gc" for
// collector work, else the CPUPackages entry holding the innermost
// repro/internal frame (runtime frames below it are charged to it), else
// "other".
func SelfBucket(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		pkg, ok := strings.CutPrefix(funcPackage(fn), "repro/internal/")
		if !ok {
			continue
		}
		last := pkg[strings.LastIndexByte(pkg, '/')+1:]
		for _, p := range CPUPackages {
			if p == last {
				return p
			}
		}
		return "other"
	}
	return "other"
}

// CumBucket names the sim boundary a sample runs under — the innermost of
// CopyFrom/Clone, Step, EncodeTo and DecodeFrom on its stack — or
// "residual" when it runs under none.
func CumBucket(stack []string) string {
	for _, fn := range stack {
		if b, ok := simBoundary[fn]; ok {
			return b
		}
	}
	return "residual"
}

// CPUShares returns the weighted share of samples in each SelfBucket and
// each CumBucket, and the total weight. Every bucket appears, and each map
// sums to 1 when the profile holds any samples.
func CPUShares(samples []ProfileSample) (self, cum map[string]float64, total int64) {
	self = map[string]float64{"gc": 0, "other": 0}
	for _, p := range CPUPackages {
		self[p] = 0
	}
	cum = map[string]float64{"residual": 0}
	for _, b := range simBoundary {
		cum[b] = 0
	}
	for _, s := range samples {
		total += s.Weight
		self[SelfBucket(s.Stack)] += float64(s.Weight)
		cum[CumBucket(s.Stack)] += float64(s.Weight)
	}
	if total > 0 {
		for k := range self {
			self[k] /= float64(total)
		}
		for k := range cum {
			cum[k] /= float64(total)
		}
	}
	return self, cum, total
}
