package sim

import "testing"

// TestPercentileEdgeCases pins the nearest-rank percentile on the
// boundary inputs Collect can hand it: no samples, one sample, and
// heavily tied samples.
func TestPercentileEdgeCases(t *testing.T) {
	tests := []struct {
		name   string
		sorted []int
		p      int
		want   int
	}{
		{"empty p50", nil, 50, 0},
		{"empty p99", []int{}, 99, 0},
		{"single p50", []int{7}, 50, 7},
		{"single p99", []int{7}, 99, 7},
		{"single p0 clamps to first", []int{7}, 0, 7},
		{"single p100", []int{7}, 100, 7},
		{"two samples p50 is first", []int{3, 9}, 50, 3},
		{"two samples p51 is second", []int{3, 9}, 51, 9},
		{"all ties", []int{4, 4, 4, 4}, 95, 4},
		{"ties at median", []int{1, 5, 5, 5, 9}, 50, 5},
		{"ties at tail", []int{1, 2, 9, 9, 9, 9, 9, 9, 9, 9}, 99, 9},
		{"p99 of 100 is 99th", seq(100), 99, 99},
		{"p99 of 1000 is 990th", seq(1000), 99, 990},
		{"p50 of 10 is 5th", seq(10), 50, 5},
		{"p100 clamps to last", seq(10), 100, 10},
		{"p over 100 clamps to last", seq(10), 150, 10},
	}
	for _, tt := range tests {
		if got := percentile(tt.sorted, tt.p); got != tt.want {
			t.Errorf("%s: percentile(%v, %d) = %d, want %d", tt.name, tt.sorted, tt.p, got, tt.want)
		}
	}
}

// seq returns 1..n sorted.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}

// TestStatsNoDeliveries checks Collect's zero-delivery path: latencies,
// percentiles and throughput all stay zero rather than dividing by zero,
// with messages held at their sources and with no messages at all.
func TestStatsNoDeliveries(t *testing.T) {
	net := line(3)
	held := New(net, Config{})
	for i := 0; i < 3; i++ {
		held.SetHeld(held.MustAdd(MessageSpec{Src: 0, Dst: 2, Length: 2, Path: pathTo(net, 2)}), true)
	}
	held.Step()
	for _, s := range []*Sim{held, New(net, Config{})} {
		st := Collect(s)
		if st.Delivered != 0 || st.AvgLatency != 0 || st.MaxLatency != 0 || st.P50Latency != 0 ||
			st.P99Latency != 0 || st.FlitsMoved != 0 || st.Throughput != 0 {
			t.Errorf("%d messages, none delivered: stats %+v, want zero latencies and throughput", st.Messages, st)
		}
	}
}
