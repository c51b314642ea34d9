// Package cli resolves command-line names to networks, routing algorithms
// and paper constructions; it is shared by the cmd/ executables.
package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/papernets"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ParseDims parses "4x4" or "8" style dimension lists.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("cli: bad dimension %q in %q", p, s)
		}
		dims = append(dims, v)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("cli: empty dimension list %q", s)
	}
	return dims, nil
}

// CheckBufDepth rejects a -bufdepth below 1: a channel queue holds at
// least one flit.
func CheckBufDepth(depth int) error {
	if depth < 1 {
		return fmt.Errorf("cli: -bufdepth %d: the buffer depth must be at least 1", depth)
	}
	return nil
}

// CheckVCs rejects a -vcs below 1: every link has at least one virtual
// channel.
func CheckVCs(vcs int) error {
	if vcs < 1 {
		return fmt.Errorf("cli: -vcs %d: a link needs at least 1 virtual channel", vcs)
	}
	return nil
}

// maxRates caps the points a rate list may hold. Each point is a full
// load simulation, so a longer list is a mistyped step, not a sweep.
const maxRates = 1000

// ParseRates parses an offered-rate list: a "lo:hi:step" grid or a comma
// list like "0.05,0.1,0.2". Every rate must be finite and in (0, 1], the
// grid bounds finite with lo <= hi and step > 0, and the list at most
// maxRates long. Grid points are integer multiples of the step from lo,
// rounded to 1e-9, so the list is identical however it is later split
// across workers.
func ParseRates(s string) ([]float64, error) {
	var out []float64
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("cli: rate grid must be lo:hi:step, got %q", s)
		}
		var v [3]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("cli: bad bound %q in rate grid %q", p, s)
			}
			v[i] = f
		}
		lo, hi, step := v[0], v[1], v[2]
		if step <= 0 || hi < lo {
			return nil, fmt.Errorf("cli: rate grid %q needs lo <= hi and step > 0", s)
		}
		// Stop one point past the cap; the length check below rejects it.
		for i := 0; len(out) <= maxRates; i++ {
			// Round each grid point so accumulated float error never leaks
			// into the artifact (0.06, not 0.060000000000000005).
			r := math.Round((lo+float64(i)*step)*1e9) / 1e9
			if r > hi+step/1e9 {
				break
			}
			out = append(out, r)
		}
	} else {
		for _, p := range strings.Split(s, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("cli: bad rate %q in %q", p, s)
			}
			out = append(out, r)
		}
	}
	if len(out) == 0 || len(out) > maxRates {
		return nil, fmt.Errorf("cli: %q holds %d rates; want 1 to %d", s, len(out), maxRates)
	}
	for _, r := range out {
		if !(r > 0 && r <= 1) { // also false for NaN
			return nil, fmt.Errorf("cli: rate %v in %q is outside (0, 1]", r, s)
		}
	}
	return out, nil
}

// Build constructs a routing algorithm from names:
//
//	topo: mesh, torus, ring, uring, hypercube, star, complete
//	alg:  dor, negfirst, dallyseitz, ecube, bfs, valiant, valiantsplit, hub
//
// dims applies to mesh/torus ("4x4"), and the single radix of
// ring/hypercube/star/complete ("8"). vcs applies to mesh/torus and must
// be at least 1 (CheckVCs). The returned grid is non-nil for mesh/torus
// topologies.
func Build(topo, alg, dims string, vcs int) (routing.Algorithm, *topology.Grid, error) {
	d, err := ParseDims(dims)
	if err != nil {
		return nil, nil, err
	}
	if err := CheckVCs(vcs); err != nil {
		return nil, nil, err
	}
	var net *topology.Network
	var grid *topology.Grid
	switch topo {
	case "mesh":
		grid = topology.NewMesh(d, vcs)
		net = grid.Network
	case "torus":
		grid = topology.NewTorus(d, vcs)
		net = grid.Network
	case "ring":
		net = topology.NewRing(d[0], true)
	case "uring":
		net = topology.NewRing(d[0], false)
	case "hypercube":
		net = topology.NewHypercube(d[0])
	case "star":
		net = topology.NewStar(d[0])
	case "complete":
		net = topology.NewComplete(d[0])
	default:
		return nil, nil, fmt.Errorf("cli: unknown topology %q", topo)
	}
	switch alg {
	case "dor":
		if grid == nil || grid.Wrap {
			return nil, nil, fmt.Errorf("cli: dor requires a mesh")
		}
		return routing.DimensionOrder(grid), grid, nil
	case "negfirst":
		if grid == nil || grid.Wrap {
			return nil, nil, fmt.Errorf("cli: negfirst requires a mesh")
		}
		return routing.NegativeFirst(grid), grid, nil
	case "dallyseitz":
		if grid == nil || !grid.Wrap || vcs < 2 {
			return nil, nil, fmt.Errorf("cli: dallyseitz requires a torus with at least 2 virtual channels")
		}
		return routing.DallySeitzTorus(grid), grid, nil
	case "ecube":
		if topo != "hypercube" {
			return nil, nil, fmt.Errorf("cli: ecube requires a hypercube")
		}
		return routing.ECube(net), grid, nil
	case "bfs":
		return routing.ShortestBFS(net), grid, nil
	case "valiant":
		if grid == nil || grid.Wrap {
			return nil, nil, fmt.Errorf("cli: valiant requires a mesh")
		}
		return routing.Valiant(grid, 1, false), grid, nil
	case "valiantsplit":
		if grid == nil || grid.Wrap || vcs < 2 {
			return nil, nil, fmt.Errorf("cli: valiantsplit requires a mesh with at least 2 virtual channels")
		}
		return routing.Valiant(grid, 1, true), grid, nil
	case "hub":
		return routing.Hub(net, 0), grid, nil
	default:
		return nil, nil, fmt.Errorf("cli: unknown algorithm %q", alg)
	}
}

// AdaptiveNames lists the algorithm names BuildAdaptive accepts.
var AdaptiveNames = map[string]bool{"fulladaptive": true, "westfirst": true, "duato": true}

// BuildAdaptive constructs an adaptive routing algorithm on a grid
// topology: fulladaptive (mesh or torus, any VCs), westfirst (2-D mesh,
// 1+ VCs), duato (mesh, 2+ VCs).
func BuildAdaptive(topo, alg, dims string, vcs int) (adaptive.Algorithm, *topology.Grid, error) {
	d, err := ParseDims(dims)
	if err != nil {
		return adaptive.Algorithm{}, nil, err
	}
	if err := CheckVCs(vcs); err != nil {
		return adaptive.Algorithm{}, nil, err
	}
	var grid *topology.Grid
	switch topo {
	case "mesh":
		grid = topology.NewMesh(d, vcs)
	case "torus":
		grid = topology.NewTorus(d, vcs)
	default:
		return adaptive.Algorithm{}, nil, fmt.Errorf("cli: adaptive algorithms need a mesh or torus, not %q", topo)
	}
	switch alg {
	case "fulladaptive":
		return adaptive.FullyAdaptiveMinimal(grid), grid, nil
	case "westfirst":
		if grid.Wrap || len(grid.Dims) != 2 {
			return adaptive.Algorithm{}, nil, fmt.Errorf("cli: westfirst needs a 2-D mesh")
		}
		return adaptive.WestFirst(grid), grid, nil
	case "duato":
		if grid.Wrap {
			return adaptive.Algorithm{}, nil, fmt.Errorf("cli: duato needs a mesh")
		}
		if vcs < 2 {
			return adaptive.Algorithm{}, nil, fmt.Errorf("cli: duato needs at least 2 virtual channels")
		}
		return adaptive.DuatoMesh(grid), grid, nil
	}
	return adaptive.Algorithm{}, nil, fmt.Errorf("cli: unknown adaptive algorithm %q", alg)
}

// PatternNames lists the traffic pattern names BuildPattern accepts.
const PatternNames = "uniform, transpose, bitrev, hotspot, tornado, complement, shuffle, randperm"

// BuildPattern resolves a traffic-pattern name for a network. grid may be
// nil for non-grid topologies (grid-only patterns then error). permSeed
// seeds the randperm pattern's fixed permutation.
func BuildPattern(name string, net *topology.Network, grid *topology.Grid, permSeed int64) (traffic.Pattern, error) {
	n := net.NumNodes()
	needSquare := func() error {
		if grid == nil || len(grid.Dims) != 2 || grid.Dims[0] != grid.Dims[1] {
			return fmt.Errorf("cli: pattern %q needs a square 2-D mesh/torus", name)
		}
		return nil
	}
	switch name {
	case "uniform":
		return traffic.Uniform(n), nil
	case "transpose":
		if err := needSquare(); err != nil {
			return nil, err
		}
		return traffic.Transpose(grid), nil
	case "bitrev":
		return traffic.BitReversal(n), nil
	case "hotspot":
		return traffic.Hotspot(n, 0, 0.3), nil
	case "tornado":
		if grid == nil {
			return nil, fmt.Errorf("cli: pattern %q needs a mesh/torus", name)
		}
		return traffic.Tornado(grid), nil
	case "complement":
		if grid == nil {
			return nil, fmt.Errorf("cli: pattern %q needs a mesh/torus", name)
		}
		return traffic.Complement(grid), nil
	case "shuffle":
		return traffic.Shuffle(n), nil
	case "randperm":
		return traffic.RandomPermutation(n, permSeed), nil
	}
	return nil, fmt.Errorf("cli: unknown pattern %q (want %s)", name, PatternNames)
}

// PaperNet resolves a paper-construction name: figure1, figure2,
// figure3a..figure3f, gen<k>.
func PaperNet(name string) (*papernets.Net, error) {
	switch {
	case name == "figure1" || name == "fig1":
		return papernets.Figure1(), nil
	case name == "figure2" || name == "fig2":
		return papernets.Figure2(), nil
	case strings.HasPrefix(name, "figure3") && len(name) == len("figure3")+1,
		strings.HasPrefix(name, "fig3") && len(name) == len("fig3")+1:
		letter := name[len(name)-1]
		if letter < 'a' || letter > 'f' {
			return nil, fmt.Errorf("cli: figure 3 letter %q out of range a..f", letter)
		}
		return papernets.Figure3(letter), nil
	case strings.HasPrefix(name, "gen"):
		k, err := strconv.Atoi(name[3:])
		if err != nil || k < 1 {
			return nil, fmt.Errorf("cli: bad gen parameter in %q", name)
		}
		return papernets.GenK(k), nil
	}
	return nil, fmt.Errorf("cli: unknown paper network %q (want figure1, figure2, figure3a..f, gen<k>)", name)
}
