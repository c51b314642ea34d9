//go:build !linux

package bench

import (
	"errors"
	"time"
)

var errNoProc = errors.New("resident-set accounting needs Linux")

// cpuTime is not measured off Linux; go.cpu_ms_per_op reads 0.
func cpuTime() time.Duration { return 0 }

// resetPeakRSS is unavailable off Linux; peak_rss_mib is not reported.
func resetPeakRSS() error { return errNoProc }

func peakRSS() (int64, error) { return 0, errNoProc }
