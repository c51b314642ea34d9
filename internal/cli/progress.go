package cli

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/mcheck"
	"repro/internal/obsv"
)

// progressEvery is how often -progress looks at the registry.
const progressEvery = 2 * time.Second

// progressPrinter is -progress. While a search runs it prints a line every
// progressEvery from the registry's mcheck_* gauges, which the search sets
// on every BFS level, whenever they moved since the last line; SearchDone
// prints the final line from the result. It only reads the registry, so a
// -metrics snapshot holds the same families with or without it.
type progressPrinter struct {
	reg  *obsv.Registry
	w    io.Writer
	quit chan struct{}
	done chan struct{}

	mu            sync.Mutex
	start         time.Time // when the current search began; zero between searches
	level, states int64     // the gauges the last line showed
}

// startProgress starts a printer over reg writing to w; stop ends it.
func startProgress(reg *obsv.Registry, w io.Writer) *progressPrinter {
	p := &progressPrinter{reg: reg, w: w, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(progressEvery)
		defer t.Stop()
		for {
			select {
			case <-p.quit:
				return
			case now := <-t.C:
				p.tick(now)
			}
		}
	}()
	return p
}

// stop ends the printer's goroutine and waits for it to exit.
func (p *progressPrinter) stop() {
	close(p.quit)
	<-p.done
}

// begin marks the start of a search. The gauges still hold the previous
// search's final values until the new search's first level, so they are
// taken as already shown.
func (p *progressPrinter) begin(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.start = now
	p.level, _ = p.reg.GaugeValue("mcheck_search_level")
	p.states, _ = p.reg.GaugeValue("mcheck_states")
}

// tick prints the live line when a search is running and its level or
// state count moved since the last line.
func (p *progressPrinter) tick(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		return
	}
	level, _ := p.reg.GaugeValue("mcheck_search_level")
	states, ok := p.reg.GaugeValue("mcheck_states")
	if !ok || (level == p.level && states == p.states) {
		return
	}
	p.level, p.states = level, states
	frontier, _ := p.reg.GaugeValue("mcheck_frontier_size")
	visited, _ := p.reg.GaugeValue("mcheck_visited_bytes")
	spill, _ := p.reg.GaugeValue("mcheck_visited_spill_bytes")
	elapsed := now.Sub(p.start)
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(states) / secs
	}
	p.line(level, frontier, states, rate, visited, spill, elapsed)
}

// searchDone prints the final line of a finished search, at the last
// level the search expanded, and ends the live lines until the next
// search begins.
func (p *progressPrinter) searchDone(res mcheck.SearchResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.start = time.Time{}
	level, _ := p.reg.GaugeValue("mcheck_search_level")
	p.line(level, 0, int64(res.States), res.StatesPerSec, res.Visited.Bytes, res.Visited.SpillBytes, res.Elapsed)
}

// line writes one progress line. Caller holds p.mu.
func (p *progressPrinter) line(level, frontier, states int64, rate float64, visited, spill int64, elapsed time.Duration) {
	spilled := ""
	if spill > 0 {
		spilled = fmt.Sprintf(" (+%s spilled)", FormatBytes(spill))
	}
	fmt.Fprintf(p.w, "search: level %d, frontier %d, %d states, %.0f states/sec, visited %s%s, %s\n",
		level, frontier, states, rate, FormatBytes(visited), spilled, elapsed.Round(10*time.Millisecond))
}
