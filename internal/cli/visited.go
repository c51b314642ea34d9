package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/mcheck"
)

// VisitedFlags holds the visited-set backend flags shared by every
// command that runs an exhaustive search: -visited, -visited-mem,
// -spill-dir. Register them with RegisterVisitedFlags before flag.Parse,
// then resolve with Config.
type VisitedFlags struct {
	Backend   *string
	MemBudget *string
	SpillDir  *string
}

// RegisterVisitedFlags registers the visited-set backend flags on the
// default flag set.
func RegisterVisitedFlags() *VisitedFlags {
	return registerVisitedFlags(flag.CommandLine)
}

func registerVisitedFlags(fs *flag.FlagSet) *VisitedFlags {
	return &VisitedFlags{
		Backend: fs.String("visited", "mem",
			"visited-set backend: mem (in-memory reference), spill (disk-backed, memory-bounded); verdicts and witnesses are identical across backends"),
		MemBudget: fs.String("visited-mem", "",
			"spill backend resident-memory budget, e.g. 64M or 2Gi (binary suffixes K/M/G/T; default 256M)"),
		SpillDir: fs.String("spill-dir", "",
			"parent directory for spill run files (default: the system temp directory)"),
	}
}

// Config resolves the parsed flags into a search VisitedConfig. A
// -spill-dir must name an existing directory. The error names the
// offending flag; commands report it as a usage error (exit 2).
func (f *VisitedFlags) Config() (mcheck.VisitedConfig, error) {
	var cfg mcheck.VisitedConfig
	switch *f.Backend {
	case "", "mem":
		cfg.Backend = mcheck.VisitedMem
	case "spill":
		cfg.Backend = mcheck.VisitedSpill
	default:
		return cfg, fmt.Errorf("cli: -visited=%s: unknown backend (want mem, spill)", *f.Backend)
	}
	if *f.MemBudget != "" {
		n, err := ParseByteSize(*f.MemBudget)
		if err != nil {
			return cfg, fmt.Errorf("cli: -visited-mem: %w", err)
		}
		cfg.MemBudget = n
	}
	if dir := *f.SpillDir; dir != "" {
		// The spill backend makes its private run directory under this
		// one; a missing parent would otherwise surface mid-search.
		fi, err := os.Stat(dir)
		if err != nil {
			return cfg, fmt.Errorf("cli: -spill-dir: %w", err)
		}
		if !fi.IsDir() {
			return cfg, fmt.Errorf("cli: -spill-dir: %s is not a directory", dir)
		}
		cfg.SpillDir = dir
	}
	return cfg, nil
}

// FormatBytes renders a byte count with a binary suffix, one decimal.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// ParseByteSize parses a human-friendly size: a non-negative integer with
// an optional binary suffix K, M, G or T (Ki/Mi/Gi/Ti and lowercase
// accepted; an optional trailing B too, so "64MiB" works).
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	upper := strings.ToUpper(t)
	upper = strings.TrimSuffix(upper, "B")
	upper = strings.TrimSuffix(upper, "I")
	shift := 0
	switch {
	case strings.HasSuffix(upper, "K"):
		shift = 10
	case strings.HasSuffix(upper, "M"):
		shift = 20
	case strings.HasSuffix(upper, "G"):
		shift = 30
	case strings.HasSuffix(upper, "T"):
		shift = 40
	}
	if shift > 0 {
		upper = upper[:len(upper)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("malformed size %q (want e.g. 1048576, 64M, 2Gi)", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n << shift, nil
}
