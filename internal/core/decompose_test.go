package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"runtime"
	"testing"

	"repro/internal/cdg"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/topology"
)

// goldenAlgorithms is the decomposition golden's input set: every paper
// network and the first 20 random minimal algorithms on a 3×3 mesh.
func goldenAlgorithms() []routing.Algorithm {
	algs := []routing.Algorithm{papernets.Figure1().Alg, papernets.Figure2().Alg}
	for l := byte('a'); l <= 'f'; l++ {
		algs = append(algs, papernets.Figure3(l).Alg)
	}
	for k := 1; k <= 7; k++ {
		algs = append(algs, papernets.GenK(k).Alg)
	}
	net := topology.NewMesh([]int{3, 3}, 1).Network
	for seed := int64(0); seed < 20; seed++ {
		algs = append(algs, routing.RandomMinimal(net, seed))
	}
	return algs
}

// decomposeCycle decomposes one cycle of alg on a fresh worker.
func decomposeCycle(alg routing.Algorithm, cyc cdg.Cycle, maxConfigs int) ([]Configuration, bool) {
	return newCycleWorker(newPathIndex(alg)).decompose(cyc, maxConfigs)
}

// hashDecomposition feeds one cycle's decomposition into h: every
// configuration in order, every member's Src, Dst, Arc and Approach, then
// the truncation flag.
func hashDecomposition(h hash.Hash, configs []Configuration, truncated bool) {
	var buf []byte
	put := func(v int) { buf = binary.LittleEndian.AppendUint32(buf, uint32(v)) }
	put(len(configs))
	for _, cfg := range configs {
		put(len(cfg.Members))
		for _, m := range cfg.Members {
			put(int(m.Src))
			put(int(m.Dst))
			put(len(m.Arc))
			for _, c := range m.Arc {
				put(int(c))
			}
			put(len(m.Approach))
			for _, c := range m.Approach {
				put(int(c))
			}
		}
	}
	if truncated {
		put(1)
	} else {
		put(0)
	}
	h.Write(buf)
}

// TestDecomposeRepeatedRunKeptOnce routes one pair's path through the
// cycle's first channel twice, leaving the cycle by a detour in between,
// so that pair realizes the arc [a] with two different approaches. A
// configuration is one set of (pair, arc) members: the tiling through the
// second run repeats the one through the first and is not reported.
func TestDecomposeRepeatedRunKeptOnce(t *testing.T) {
	net := topology.New("loop-detour")
	net.AddNodes(4)
	a := net.AddChannel(0, 1, 0, "a")
	b := net.AddChannel(1, 2, 0, "b")
	c := net.AddChannel(2, 0, 0, "c")
	d := net.AddChannel(0, 3, 0, "d")
	e := net.AddChannel(3, 0, 0, "e")
	alg := routing.NewTable(net, "detour")
	alg.MustSetPath(0, 2, []topology.ChannelID{a, b, c, d, e, a, b})
	alg.MustSetPath(1, 0, []topology.ChannelID{b, c})
	alg.MustSetPath(2, 1, []topology.ChannelID{c, a})

	configs, truncated := decomposeCycle(alg, cdg.Cycle{a, b, c}, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	// [a b c] by three one-channel arcs, and [a b] + [c].
	if len(configs) != 2 {
		t.Fatalf("tilings = %d; want 2: %+v", len(configs), configs)
	}
	if m := configs[0].Members[0]; len(configs[0].Members) != 3 || m.Src != 0 || len(m.Approach) != 0 {
		t.Fatalf("first tiling %+v; want the three-arc tiling through the first run of 0->2", configs[0])
	}
}

// TestDecompositionGolden pins decomposeCycle's output — every
// configuration of every cycle, in order, and the truncation flags — on
// the paper networks and random minimal 3×3 algorithms at several caps.
// The cap of 1 and 7 exercise truncation mid-rotation; 256 is the default.
// A change to the enumeration order, the rotation dedupe or the cap's
// counting changes the digest.
func TestDecompositionGolden(t *testing.T) {
	want := map[int]string{
		1:   "56d4f878938044ac",
		7:   "b927629b4cb145ca",
		256: "1b2d3f422687b9f2",
	}
	algs := goldenAlgorithms()
	cycles := make([][]cdg.Cycle, len(algs))
	for i, alg := range algs {
		cycles[i], _ = cdg.New(alg).Cycles(DefaultMaxCycles)
	}
	for _, maxConfigs := range []int{1, 7, 256} {
		h := sha256.New()
		n, trunc := 0, 0
		for i, alg := range algs {
			for _, cyc := range cycles[i] {
				configs, truncated := decomposeCycle(alg, cyc, maxConfigs)
				hashDecomposition(h, configs, truncated)
				n += len(configs)
				if truncated {
					trunc++
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		t.Logf("cap %d: %d configurations, %d truncated cycles, digest %s", maxConfigs, n, trunc, got)
		if got != want[maxConfigs] {
			t.Errorf("cap %d: decomposition digest %s, want %s", maxConfigs, got, want[maxConfigs])
		}
	}
}

// hashReport feeds every field of an Analyze report into h: the header
// (name, properties, CDG size, acyclicity and numbering, screen, cycle
// truncation), each cycle with its verdict and truncation flag, each
// configuration's members, verdict, reason and witness schedule, and the
// overall verdict and reason.
func hashReport(h hash.Hash, rep *Report) {
	var buf []byte
	put := func(v int) { buf = binary.LittleEndian.AppendUint32(buf, uint32(v)) }
	str := func(s string) { put(len(s)); buf = append(buf, s...) }
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	ints := func(vs []int) {
		put(len(vs))
		for _, v := range vs {
			put(v)
		}
	}
	chans := func(cs []topology.ChannelID) {
		put(len(cs))
		for _, c := range cs {
			put(int(c))
		}
	}
	str(rep.Algorithm)
	str(rep.Properties.String())
	put(rep.CDGEdges)
	flag(rep.Acyclic)
	ints(rep.Numbering)
	str(rep.Screen)
	flag(rep.CyclesTruncated)
	put(len(rep.Cycles))
	for _, cr := range rep.Cycles {
		chans(cr.Cycle)
		put(int(cr.Verdict))
		flag(cr.Truncated)
		put(len(cr.Configs))
		for _, c := range cr.Configs {
			put(len(c.Config.Members))
			for _, m := range c.Config.Members {
				put(int(m.Src))
				put(int(m.Dst))
				chans(m.Arc)
				chans(m.Approach)
			}
			put(int(c.Verdict))
			str(c.Reason)
			flag(c.Witness != nil)
			if c.Witness != nil {
				ints(c.Witness.SharedOrder)
				ints(c.Witness.Times)
			}
		}
	}
	put(int(rep.Verdict))
	str(rep.Reason)
	h.Write(buf)
}

// TestAnalyzeReportGolden pins every field of Analyze's report on the
// golden inputs, at one and at four GOMAXPROCS: cycles are analyzed in
// parallel, and the report must not depend on how many run at once. It
// runs in -short mode so the race detector sees the parallel path.
func TestAnalyzeReportGolden(t *testing.T) {
	const want = "f578c19c608aa3ae"
	algs := goldenAlgorithms()
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			h := sha256.New()
			for _, alg := range algs {
				hashReport(h, Analyze(alg, Options{}))
			}
			got := hex.EncodeToString(h.Sum(nil))[:16]
			t.Logf("GOMAXPROCS %d: report digest %s", procs, got)
			if got != want {
				t.Errorf("GOMAXPROCS %d: report digest %s, want %s", procs, got, want)
			}
		}()
	}
}
