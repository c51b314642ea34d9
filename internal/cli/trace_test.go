package cli

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"testing"
)

// TestTraceSinkByExtension: the -trace path alone picks the sink.
func TestTraceSinkByExtension(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"run.dot", "*obsv.DOTSink"},
		{"run.gv", "*obsv.DOTSink"},
		{"run.json", "*obsv.ChromeTraceSink"},
		{"RUN.JSON", "*obsv.ChromeTraceSink"},
		{"run.jsonl", "*obsv.JSONLSink"},
		{"run", "*obsv.JSONLSink"},
	} {
		if got := fmt.Sprintf("%T", newTraceSink(tc.path, io.Discard, "net", nil)); got != tc.want {
			t.Errorf("%s: sink %s, want %s", tc.path, got, tc.want)
		}
	}
}

// TestObsvFlagGroups: each registration group puts exactly its flags on
// a fresh flag set, and Open works with only the common group.
func TestObsvFlagGroups(t *testing.T) {
	common := []string{"manifest", "metrics", "profile", "serve"}
	for _, tc := range []struct {
		name  string
		group func(*ObsvFlags) *ObsvFlags
		want  []string
	}{
		{"common", func(f *ObsvFlags) *ObsvFlags { return f }, nil},
		{"trace", (*ObsvFlags).WithTrace, []string{"trace"}},
		{"progress", (*ObsvFlags).WithProgress, []string{"progress"}},
		{"telemetry", (*ObsvFlags).WithTelemetry, []string{"telemetry", "telemetry-adaptive"}},
	} {
		fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		f := tc.group(registerObsvFlags(fs))
		var got []string
		fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name) })
		want := append(slices.Clone(common), tc.want...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: flags %v, want %v", tc.name, got, want)
		}
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		o, err := f.Open(tc.name, nil)
		if err != nil {
			t.Fatalf("%s: Open: %v", tc.name, err)
		}
		if o.Tracer != nil || o.Metrics != nil {
			t.Errorf("%s: unset flags opened sinks", tc.name)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
