package sim

import "sort"

// Stats aggregates delivery statistics for performance experiments.
type Stats struct {
	Messages   int
	Delivered  int
	Cycles     int     // current simulation cycle
	AvgLatency float64 // mean (deliveredAt - injectAt + 1) over delivered messages
	MaxLatency int
	// P50/P95/P99 are nearest-rank latency percentiles over delivered
	// messages (0 when nothing was delivered).
	P50Latency int
	P95Latency int
	P99Latency int
	FlitsMoved int     // total flits consumed at destinations
	Throughput float64 // consumed flits per cycle
}

// Collect computes statistics from the simulator's current state. Latency
// counts from the cycle the header entered the network to the cycle the
// tail was consumed, inclusive.
func Collect(s *Sim) Stats {
	st := Stats{Messages: len(s.msgs), Cycles: s.now}
	totalLatency := 0
	var latencies []int
	for i := range s.msgs {
		m := &s.msgs[i]
		st.FlitsMoved += m.consumed
		if !m.delivered() {
			continue
		}
		st.Delivered++
		lat := m.deliveredAt - m.injectedAt + 1
		totalLatency += lat
		latencies = append(latencies, lat)
		if lat > st.MaxLatency {
			st.MaxLatency = lat
		}
	}
	if st.Delivered > 0 {
		st.AvgLatency = float64(totalLatency) / float64(st.Delivered)
		sort.Ints(latencies)
		st.P50Latency = percentile(latencies, 50)
		st.P95Latency = percentile(latencies, 95)
		st.P99Latency = percentile(latencies, 99)
	}
	if s.now > 0 {
		st.Throughput = float64(st.FlitsMoved) / float64(s.now)
	}
	return st
}

// percentile returns the nearest-rank p-th percentile of sorted values:
// the smallest element such that at least p% of samples are <= it.
func percentile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
