package unreachable

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// threeSharer builds a pure three-sharer configuration with the given ring
// position parameters.
func threeSharer(d, c [3]int) Config {
	var cfg Config
	for i := 0; i < 3; i++ {
		cfg.Entrants = append(cfg.Entrants, Entrant{D: d[i], C: c[i], Shared: true})
	}
	return cfg
}

func TestClassifyFigure1Unreachable(t *testing.T) {
	// Figure 1's parameters: four sharers, d=(2,3,2,3), c=(3,4,3,4).
	cfg := Config{Entrants: []Entrant{
		{D: 2, C: 3, Shared: true},
		{D: 3, C: 4, Shared: true},
		{D: 2, C: 3, Shared: true},
		{D: 3, C: 4, Shared: true},
	}}
	v, w := Classify(cfg)
	if v != FalseResourceCycle {
		t.Fatalf("verdict = %v; Theorem 1 says unreachable", v)
	}
	if w != nil {
		t.Fatal("false resource cycle must not carry a witness")
	}
}

func TestClassifyTwoSharerAlwaysReachable(t *testing.T) {
	// Theorem 4 over a grid.
	for d1 := 2; d1 <= 6; d1++ {
		for d2 := 2; d2 <= 6; d2++ {
			for _, c1 := range []int{2, 3, 5} {
				for _, c2 := range []int{2, 4} {
					cfg := Config{Entrants: []Entrant{
						{D: d1, C: c1, Shared: true},
						{D: d2, C: c2, Shared: true},
					}}
					v, w := Classify(cfg)
					if v != DeadlockReachable {
						t.Fatalf("d=(%d,%d) c=(%d,%d): %v; Theorem 4 says reachable", d1, d2, c1, c2, v)
					}
					verifyWitness(t, cfg, w)
				}
			}
		}
	}
}

func TestClassifyNoSharingAlwaysReachable(t *testing.T) {
	// Theorem 2 / Corollary 1 shape: no shared channel at all.
	cfg := Config{Entrants: []Entrant{
		{D: 2, C: 3}, {D: 1, C: 2}, {D: 4, C: 2},
	}}
	v, w := Classify(cfg)
	if v != DeadlockReachable {
		t.Fatalf("verdict = %v; no-sharing cycles are always reachable", v)
	}
	verifyWitness(t, cfg, w)
}

// verifyWitness independently re-checks the witness against the timing
// constraints the package documents.
func verifyWitness(t *testing.T, cfg Config, w *Witness) {
	t.Helper()
	if w == nil {
		t.Fatal("missing witness")
	}
	n := len(cfg.Entrants)
	if len(w.Times) != n {
		t.Fatalf("witness has %d times for %d entrants", len(w.Times), n)
	}
	for m := 0; m < n; m++ {
		b := (m + 1) % n
		em, eb := cfg.Entrants[m], cfg.Entrants[b]
		if w.Times[b]+eb.D > w.Times[m]+em.D+em.C {
			t.Fatalf("ring pair (%d,%d) violated: x_b=%d d_b=%d vs x_m=%d d_m=%d c_m=%d",
				m, b, w.Times[b], eb.D, w.Times[m], em.D, em.C)
		}
	}
	for j := 0; j+1 < len(w.SharedOrder); j++ {
		s, tt := w.SharedOrder[j], w.SharedOrder[j+1]
		if w.Times[tt] < w.Times[s]+cfg.Entrants[s].C {
			t.Fatalf("cs order violated between %d and %d", s, tt)
		}
	}
	for _, x := range w.Times {
		if x < 0 {
			t.Fatalf("negative time in witness: %v", w.Times)
		}
	}
}

func TestClassifyThreeSharerBoundary(t *testing.T) {
	// Ring order (M1, M3, M2): reachable single-instance iff d1 >= d3 + c2.
	// d1 starts at 4 so the approach distances stay distinct (ties are the
	// condition-3 cases, always reachable).
	for d1 := 4; d1 <= 9; d1++ {
		for _, c2 := range []int{2, 3, 4} {
			cfg := threeSharer([3]int{d1, 2, 3}, [3]int{d1, 3, c2})
			v, _ := Classify(cfg)
			want := FalseResourceCycle
			if d1 >= 2+c2 {
				want = DeadlockReachable
			}
			if v != want {
				t.Fatalf("d1=%d c2=%d: %v; want %v", d1, c2, v, want)
			}
		}
	}
}

func TestClassifyPanicsOnTinyConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Classify(Config{Entrants: []Entrant{{D: 1, C: 2}}})
}

func TestTheorem5Applicability(t *testing.T) {
	if rep := Theorem5(Config{Entrants: []Entrant{{Shared: true, D: 2, C: 2}, {Shared: true, D: 3, C: 2}}}); rep.Applicable {
		t.Fatal("two entrants: not applicable")
	}
	mixed := Config{Entrants: []Entrant{
		{Shared: true, D: 2, C: 2}, {Shared: true, D: 3, C: 2}, {Shared: false, D: 2, C: 2},
	}}
	if rep := Theorem5(mixed); rep.Applicable {
		t.Fatal("non-sharing member: not applicable")
	}
}

func TestTheorem5Labeling(t *testing.T) {
	rep := Theorem5(threeSharer([3]int{4, 2, 3}, [3]int{5, 4, 4}))
	if !rep.Applicable {
		t.Fatal("should apply")
	}
	if rep.M1 != 0 || rep.M3 != 1 || rep.M2 != 2 {
		t.Fatalf("labels M1=%d M2=%d M3=%d; want 0, 2, 1", rep.M1, rep.M2, rep.M3)
	}
	if len(rep.Conditions) != 8 {
		t.Fatalf("conditions = %d; want 8", len(rep.Conditions))
	}
	for i, c := range rep.Conditions {
		if c.Number != i+1 {
			t.Fatalf("condition %d numbered %d", i, c.Number)
		}
		if c.Detail == "" || c.Name == "" {
			t.Fatalf("condition %d lacks detail", c.Number)
		}
	}
	if !rep.Unreachable {
		t.Fatal("figure 3(a) parameters must be unreachable")
	}
}

func TestTheorem5ConditionViolations(t *testing.T) {
	cases := []struct {
		name    string
		d, c    [3]int
		violate string
	}{
		{"order", [3]int{4, 3, 2}, [3]int{5, 4, 4}, "ring-order"},
		{"ties", [3]int{3, 3, 2}, [3]int{5, 4, 4}, "distinct-distances"},
		{"m1-block", [3]int{5, 2, 3}, [3]int{3, 4, 4}, "M1-not-blockable"},
		{"m3-block", [3]int{10, 8, 9}, [3]int{10, 4, 9}, "M3-not-blockable"},
		{"m2-block", [3]int{5, 3, 4}, [3]int{5, 4, 3}, "M2-not-blockable"},
		{"overtake", [3]int{6, 2, 3}, [3]int{6, 4, 4}, "no-cs-overtake"},
	}
	for _, tc := range cases {
		rep := Theorem5(threeSharer(tc.d, tc.c))
		if !rep.Applicable {
			t.Fatalf("%s: not applicable", tc.name)
		}
		if rep.Unreachable {
			t.Fatalf("%s: expected reachable", tc.name)
		}
		found := false
		for _, c := range rep.Conditions {
			if c.Name == tc.violate && !c.Holds {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: condition %q not reported violated: %+v", tc.name, tc.violate, rep.Conditions)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if FalseResourceCycle.String() != "false-resource-cycle" || DeadlockReachable.String() != "deadlock-reachable" {
		t.Fatal("verdict strings wrong")
	}
}

// TestPermutations pins forEachOrder's visiting order, which decides the
// witness Classify reports: the recursive swap order, stopping at the
// first accepted ordering with ids left in it.
func TestPermutations(t *testing.T) {
	orders := func(ids []int, accept int) ([][]int, bool) {
		var got [][]int
		ok := forEachOrder(ids, func() bool {
			got = append(got, slices.Clone(ids))
			return len(got) == accept
		})
		return got, ok
	}
	ids := []int{1, 2, 3}
	got, ok := orders(ids, 0)
	want := [][]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 2, 1}, {3, 1, 2}}
	if ok || !reflect.DeepEqual(got, want) || !slices.Equal(ids, []int{1, 2, 3}) {
		t.Fatalf("orders of [1 2 3] = %v (accepted %v, ids left %v); want %v", got, ok, ids, want)
	}
	if got, ok := orders(ids, 4); !ok || len(got) != 4 || !slices.Equal(ids, want[3]) {
		t.Fatalf("stopping at the fourth order visited %d, left ids %v", len(got), ids)
	}
	if got, _ := orders(nil, 0); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty permutations = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for > 8 sharers")
		}
	}()
	forEachOrder(make([]int, 9), func() bool { return false })
}

func TestConditionDetailMentionsNumbers(t *testing.T) {
	rep := Theorem5(threeSharer([3]int{4, 2, 3}, [3]int{5, 4, 4}))
	for _, c := range rep.Conditions {
		if c.Number >= 3 && c.Number <= 7 && !strings.ContainsAny(c.Detail, "0123456789") {
			t.Fatalf("condition %d detail has no arithmetic: %q", c.Number, c.Detail)
		}
	}
}

// Property: every witness Classify returns satisfies its own constraint
// system, for random small configurations.
func TestWitnessSoundnessProperty(t *testing.T) {
	f := func(raw [4]uint8, sharedMask uint8) bool {
		var cfg Config
		for i := 0; i < 4; i++ {
			d := int(raw[i]%4) + 1
			c := int(raw[i]/4%4) + 2
			shared := sharedMask&(1<<i) != 0
			if shared && d < 2 {
				d = 2
			}
			cfg.Entrants = append(cfg.Entrants, Entrant{D: d, C: c, Shared: shared})
		}
		v, w := Classify(cfg)
		if v == FalseResourceCycle {
			return w == nil
		}
		// Inline the witness checks (cannot t.Fatal inside quick.Check).
		n := len(cfg.Entrants)
		for m := 0; m < n; m++ {
			b := (m + 1) % n
			if w.Times[b]+cfg.Entrants[b].D > w.Times[m]+cfg.Entrants[m].D+cfg.Entrants[m].C {
				return false
			}
		}
		for j := 0; j+1 < len(w.SharedOrder); j++ {
			s, tt := w.SharedOrder[j], w.SharedOrder[j+1]
			if w.Times[tt] < w.Times[s]+cfg.Entrants[s].C {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
