package cli

import (
	"slices"
	"strings"
	"testing"
)

func TestParseDims(t *testing.T) {
	d, err := ParseDims("4x4")
	if err != nil || len(d) != 2 || d[0] != 4 || d[1] != 4 {
		t.Fatalf("ParseDims(4x4) = %v, %v", d, err)
	}
	if d, err := ParseDims("8"); err != nil || len(d) != 1 || d[0] != 8 {
		t.Fatalf("ParseDims(8) = %v, %v", d, err)
	}
	for _, bad := range []string{"", "x", "1x4", "axb", "4x-2"} {
		if _, err := ParseDims(bad); err == nil {
			t.Fatalf("ParseDims(%q) should fail", bad)
		}
	}
}

// FuzzParseDims: every input either fails to parse or yields a
// non-empty list of dimensions of at least 2; nothing panics.
func FuzzParseDims(f *testing.F) {
	for _, seed := range []string{"4x4", "8", "3x3", "8x8", "", "x", "1x4", "axb", "4x-2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		dims, err := ParseDims(s)
		if err != nil {
			return
		}
		if len(dims) == 0 {
			t.Fatalf("ParseDims(%q) accepted no dimensions", s)
		}
		for _, d := range dims {
			if d < 2 {
				t.Fatalf("ParseDims(%q) accepted dimension %d", s, d)
			}
		}
	})
}

func TestParseRates(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		// The loadtest default.
		{"0.02:0.20:0.02", []float64{0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2}},
		{"0.05:0.25:0.10", []float64{0.05, 0.15, 0.25}},
		{"0.5:0.5:0.1", []float64{0.5}},
		{"0.05,0.2,1", []float64{0.05, 0.2, 1}},
		{" 0.3 ", []float64{0.3}},
	}
	for _, tc := range good {
		got, err := ParseRates(tc.in)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("ParseRates(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{
		// Grids that never finished expanding.
		"NaN:0.2:0.02", "0:Inf:0.1", "0.1:0.2:NaN", "0.1:0.2:1e-12",
		// A grid that reaches rates no arrival process can run.
		"0:2:0.5",
		// Lists with a rate outside (0, 1].
		"NaN", "0.1,NaN", "Inf", "0", "-0.1", "1.5",
		// Malformed grids and lists.
		"", ",", "0.1:0.2", "0.1:0.2:0.1:0.1", "0.2:0.1:0.1", "0.1:0.2:0", "0.1:0.2:-0.1",
		"a:b:c", "0.1,,0.2",
		// A grid whose first rounded point lies past hi.
		"0.1000000006:0.1000000006:1e-12",
		// A grid and a list past maxRates.
		"0.0001:1:0.0001", strings.Repeat("0.5,", maxRates) + "0.5",
	} {
		if got, err := ParseRates(bad); err == nil {
			t.Errorf("ParseRates(%q) = %v; want an error", bad, got)
		}
	}
}

// FuzzParseRates: every input either fails to parse or yields between 1
// and maxRates finite rates in (0, 1]; nothing panics or hangs.
func FuzzParseRates(f *testing.F) {
	for _, seed := range []string{
		"0.02:0.20:0.02", "0.05,0.1,0.2", "NaN:0.2:0.02", "0:Inf:0.1",
		"0.1:0.2:NaN", "0.1:0.2:1e-12", "0:2:0.5", "NaN", "", "1e308:1e308:1e308",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rates, err := ParseRates(s)
		if err != nil {
			return
		}
		if len(rates) == 0 || len(rates) > maxRates {
			t.Fatalf("ParseRates(%q) accepted %d rates", s, len(rates))
		}
		for _, r := range rates {
			if !(r > 0 && r <= 1) {
				t.Fatalf("ParseRates(%q) accepted rate %v", s, r)
			}
		}
	})
}

func TestBuildCombos(t *testing.T) {
	good := []struct {
		topo, alg, dims string
		vcs             int
		wantGrid        bool
	}{
		{"mesh", "dor", "3x3", 1, true},
		{"mesh", "negfirst", "3x3", 1, true},
		{"torus", "dallyseitz", "4x4", 2, true},
		{"hypercube", "ecube", "3", 1, false},
		{"ring", "bfs", "5", 1, false},
		{"uring", "bfs", "4", 1, false},
		{"star", "hub", "4", 1, false},
		{"complete", "bfs", "4", 1, false},
	}
	for _, tc := range good {
		alg, grid, err := Build(tc.topo, tc.alg, tc.dims, tc.vcs)
		if err != nil {
			t.Fatalf("Build(%s,%s): %v", tc.topo, tc.alg, err)
		}
		if alg == nil || alg.Network() == nil {
			t.Fatalf("Build(%s,%s): nil algorithm", tc.topo, tc.alg)
		}
		if (grid != nil) != tc.wantGrid {
			t.Fatalf("Build(%s,%s): grid presence = %v", tc.topo, tc.alg, grid != nil)
		}
	}
	bad := []struct{ topo, alg, dims string }{
		{"mesh", "dallyseitz", "3x3"},
		{"torus", "dor", "3x3"},
		{"torus", "valiant", "3x3"},
		{"mesh", "valiantsplit", "3x3"},
		{"ring", "ecube", "4"},
		{"blob", "dor", "3x3"},
		{"mesh", "blob", "3x3"},
		{"mesh", "dor", "bad"},
	}
	for _, tc := range bad {
		if _, _, err := Build(tc.topo, tc.alg, tc.dims, 1); err == nil {
			t.Fatalf("Build(%s,%s,%s) should fail", tc.topo, tc.alg, tc.dims)
		}
	}
}

func TestPaperNet(t *testing.T) {
	for _, name := range []string{"figure1", "fig1", "figure2", "fig2", "figure3a", "fig3f", "gen2"} {
		pn, err := PaperNet(name)
		if err != nil || pn == nil {
			t.Fatalf("PaperNet(%s): %v", name, err)
		}
	}
	for _, name := range []string{"", "figure9", "figure3z", "gen0", "genx", "fig3"} {
		if _, err := PaperNet(name); err == nil {
			t.Fatalf("PaperNet(%q) should fail", name)
		}
	}
}

func TestBuildAdaptive(t *testing.T) {
	good := []struct {
		topo, alg, dims string
		vcs             int
	}{
		{"mesh", "fulladaptive", "3x3", 1},
		{"torus", "fulladaptive", "4x4", 1},
		{"mesh", "westfirst", "3x3", 1},
		{"mesh", "duato", "3x3", 2},
	}
	for _, tc := range good {
		alg, grid, err := BuildAdaptive(tc.topo, tc.alg, tc.dims, tc.vcs)
		if err != nil || alg.Route == nil || grid == nil {
			t.Fatalf("BuildAdaptive(%s,%s): %v", tc.topo, tc.alg, err)
		}
	}
	bad := []struct {
		topo, alg, dims string
		vcs             int
	}{
		{"ring", "fulladaptive", "4", 1},
		{"torus", "westfirst", "3x3", 1},
		{"mesh", "westfirst", "3x3x3", 1},
		{"mesh", "duato", "3x3", 1},
		{"torus", "duato", "3x3", 2},
		{"mesh", "nonsense", "3x3", 1},
		{"mesh", "duato", "junk", 2},
	}
	for _, tc := range bad {
		if _, _, err := BuildAdaptive(tc.topo, tc.alg, tc.dims, tc.vcs); err == nil {
			t.Fatalf("BuildAdaptive(%s,%s,%s) should fail", tc.topo, tc.alg, tc.dims)
		}
	}
	if !AdaptiveNames["duato"] || AdaptiveNames["dor"] {
		t.Fatal("AdaptiveNames wrong")
	}
}
