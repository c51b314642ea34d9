package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mcheck"
)

func parseVisitedFlags(t *testing.T, args ...string) (*flag.FlagSet, *VisitedFlags) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := registerVisitedFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs, f
}

func TestVisitedFlagsConfig(t *testing.T) {
	dir := t.TempDir()
	_, f := parseVisitedFlags(t, "-visited", "spill", "-visited-mem", "64M", "-spill-dir", dir)
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := mcheck.VisitedConfig{Backend: mcheck.VisitedSpill, MemBudget: 64 << 20, SpillDir: dir}
	if cfg != want {
		t.Fatalf("Config() = %+v, want %+v", cfg, want)
	}

	_, f = parseVisitedFlags(t)
	if cfg, err := f.Config(); err != nil || cfg.Backend != mcheck.VisitedMem {
		t.Fatalf("default Config() = %+v, %v; want the mem backend", cfg, err)
	}
}

func TestVisitedFlagsRejectUnknownBackend(t *testing.T) {
	_, f := parseVisitedFlags(t, "-visited", "bitstate")
	_, err := f.Config()
	if err == nil {
		t.Fatal("-visited bitstate accepted")
	}
	if want := "unknown backend (want mem, spill)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}

	_, f = parseVisitedFlags(t, "-visited-mem", "lots")
	if _, err := f.Config(); err == nil || !strings.Contains(err.Error(), "-visited-mem") {
		t.Fatalf("malformed -visited-mem: err = %v", err)
	}
}

// TestVisitedFlagsRejectBadSpillDir: a -spill-dir that is missing or not
// a directory is a usage error naming the flag, never a search that
// panics creating its run directory.
func TestVisitedFlagsRejectBadSpillDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, dir, want string }{
		{"missing", filepath.Join(t.TempDir(), "no", "such", "dir"), "no such file"},
		{"file", file, "not a directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, f := parseVisitedFlags(t, "-visited", "spill", "-visited-mem", "64K", "-spill-dir", tc.dir)
			_, err := f.Config()
			if err == nil || !strings.HasPrefix(err.Error(), "cli: -spill-dir:") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("-spill-dir %s: err = %v, want a cli: -spill-dir: error containing %q", tc.dir, err, tc.want)
			}
		})
	}
}

func TestVisitedFlagHelpListsBackends(t *testing.T) {
	fs, _ := parseVisitedFlags(t)
	usage := fs.Lookup("visited").Usage
	if !strings.Contains(usage, "mem (") || !strings.Contains(usage, "spill (") || strings.Contains(usage, "bitstate") {
		t.Fatalf("-visited help = %q; want exactly the mem and spill backends", usage)
	}
}

// FuzzParseByteSize: every input either fails to parse or yields a
// non-negative size; nothing panics.
func FuzzParseByteSize(f *testing.F) {
	for _, seed := range []string{"64M", "64K", "lots", "1048576", "2Gi", "64MiB", "-1", "9999999999T"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if n, err := ParseByteSize(s); err == nil && n < 0 {
			t.Fatalf("ParseByteSize(%q) = %d", s, n)
		}
	})
}
