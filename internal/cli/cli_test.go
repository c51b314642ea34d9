package cli

import "testing"

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
