package telemetry

import "testing"

// FuzzParseSLO: an -slo spec comes from the command line, so every input
// either fails to parse or yields objectives with a percentile in 1..100
// and a non-negative bound; nothing panics.
func FuzzParseSLO(f *testing.F) {
	for _, seed := range []string{"p99<=500", "p99<=5000", "p50<=120,p99<=800", "", "p0<=1", "p99<=-1", "q99<=5"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseSLO(spec)
		if err != nil {
			return
		}
		if len(objs) == 0 {
			t.Fatalf("ParseSLO(%q) accepted no objectives", spec)
		}
		for _, o := range objs {
			if o.P < 1 || o.P > 100 || o.Bound < 0 {
				t.Fatalf("ParseSLO(%q) accepted %+v", spec, o)
			}
		}
	})
}
