package serve

import (
	"math"
	"time"

	"repro/internal/cascade"
)

// breaker is the per-session latency circuit breaker. It keeps a
// sliding window of decision latencies, estimates the p99, and maps
// sustained pressure against the decision deadline onto a tier
// ceiling: level 0 is unconstrained (TierPrimary ceiling — no cap),
// level 1 caps the cascade at the accelerometer-only CNN, level 2 at
// the threshold floor. Demotion is immediate — a session close to the
// 150 ms airbag budget must get cheaper now — while promotion needs
// BreakerHold consecutive calm decisions, so the ceiling does not
// flap around the trip point.
//
// The breaker is owned by the session worker; it is not concurrency-
// safe on its own.
type breaker struct {
	window []time.Duration
	pos, n int
	level  int
	calm   int
}

func newBreaker(window int) breaker {
	return breaker{window: make([]time.Duration, window)}
}

// ceiling maps a breaker level to the cascade tier ceiling it imposes.
func breakerCeiling(level int) cascade.Tier {
	switch level {
	case 0:
		return cascade.TierPrimary
	case 1:
		return cascade.TierFallback
	default:
		return cascade.TierThreshold
	}
}

// p99 returns the nearest-rank 99th percentile of the window: the
// ⌈0.99n⌉-th smallest latency, which is the (n−⌈0.99n⌉+1)-th largest.
// That rank from the top is small — 1, the window max, for any window
// below 100 entries — so p99 selects it directly: each pass finds the
// largest value below the previous pass's, with its multiplicity,
// until the rank is covered. No copy, no sort, no allocation.
func (b *breaker) p99() time.Duration {
	w := b.window[:b.n]
	if len(w) == 0 {
		return 0
	}
	rank := len(w) - (99*len(w)+99)/100 + 1
	var top time.Duration
	for pass := 0; rank > 0; pass++ {
		below, count := top, 0
		top = math.MinInt64
		for _, v := range w {
			switch {
			case pass > 0 && v >= below:
			case v > top:
				top, count = v, 1
			case v == top:
				count++
			}
		}
		rank -= count
	}
	return top
}

// observe records one decision latency and returns the (possibly
// changed) breaker level. The level only moves once at least half the
// window is populated, so a cold session is not tripped by its first
// outlier.
func (b *breaker) observe(lat, deadline time.Duration, trip, clear float64, hold int) (level int, changed bool) {
	b.window[b.pos] = lat
	b.pos = (b.pos + 1) % len(b.window)
	if b.n < len(b.window) {
		b.n++
	}
	if b.n < len(b.window)/2 {
		return b.level, false
	}
	p := float64(b.p99())
	d := float64(deadline)
	switch {
	case p >= trip*d && b.level < 2:
		b.level++
		b.calm = 0
		return b.level, true
	case p <= clear*d && b.level > 0:
		b.calm++
		if b.calm >= hold {
			b.level--
			b.calm = 0
			return b.level, true
		}
	default:
		b.calm = 0
	}
	return b.level, false
}
