package traffic

import (
	"fmt"
	"math"
	"math/rand"
)

// Process models one source's arrival process: each cycle the load engine
// asks whether this source generates a new message. Implementations carry
// per-source state (e.g. the MMPP on/off phase), so every source gets its
// own instance from a Factory.
type Process interface {
	// Arrive reports whether a message is generated this cycle.
	Arrive(rng *rand.Rand) bool
}

// Factory builds one independent Process per source node.
type Factory struct {
	Name string
	New  func() Process
}

type bernoulliProcess struct{ rate float64 }

func (p bernoulliProcess) Arrive(rng *rand.Rand) bool { return rng.Float64() < p.rate }

// Bernoulli returns the memoryless arrival process: a message is generated
// each cycle with probability rate, independently.
func Bernoulli(rate float64) Factory {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("traffic: Bernoulli rate %v out of [0,1]", rate))
	}
	return Factory{
		Name: "bernoulli",
		New:  func() Process { return bernoulliProcess{rate: rate} },
	}
}

type burstyProcess struct {
	onRate float64 // arrival probability while in the ON phase
	toOff  float64 // ON -> OFF switch probability per cycle
	toOn   float64 // OFF -> ON switch probability per cycle
	on     bool
}

func (p *burstyProcess) Arrive(rng *rand.Rand) bool {
	// Phase transition first, then the arrival draw, so a one-cycle burst
	// is possible and the draw order is independent of the outcome.
	if p.on {
		if rng.Float64() < p.toOff {
			p.on = false
		}
	} else {
		if rng.Float64() < p.toOn {
			p.on = true
		}
	}
	return p.on && rng.Float64() < p.onRate
}

// Bursty returns a two-state MMPP (Markov-modulated) arrival process with
// long-run average rate `rate`: the source alternates between an ON phase
// injecting at peak*rate and a silent OFF phase. burstLen is the mean ON
// phase length in cycles; peak > 1 is the ON-phase rate multiplier. The
// OFF phase mean length is burstLen*(peak-1), so the ON-phase duty cycle
// is 1/peak and the average arrival rate works out to exactly rate. A
// rate outside [0, 1], a burst length below 1 or a peak of at most 1, or
// any of them NaN or infinite, is an error.
func Bursty(rate, burstLen, peak float64) (Factory, error) {
	// The comparisons are written so that NaN fails each of them.
	if !(rate >= 0 && rate <= 1) {
		return Factory{}, fmt.Errorf("traffic: Bursty rate %v out of [0,1]", rate)
	}
	if !(burstLen >= 1) || math.IsInf(burstLen, 1) {
		return Factory{}, fmt.Errorf("traffic: Bursty burst length %v must be finite and at least 1", burstLen)
	}
	if !(peak > 1) || math.IsInf(peak, 1) {
		return Factory{}, fmt.Errorf("traffic: Bursty peak factor %v must be finite and exceed 1", peak)
	}
	onRate := rate * peak
	if onRate > 1 {
		onRate = 1 // saturated bursts: rate is capped, average droops
	}
	return Factory{
		Name: "bursty",
		New: func() Process {
			return &burstyProcess{
				onRate: onRate,
				toOff:  1 / burstLen,
				toOn:   1 / (burstLen * (peak - 1)),
				// Start OFF: warmup absorbs the transient before measurement.
			}
		},
	}, nil
}
