package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond the highest percentile
// the benchmark reports, so that the percentile is not set by a handful
// of outliers.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted by
// the nearest-rank rule — the value at 1-based rank ⌈p/100·n⌉ — and the
// number of samples that lie beyond that rank.
func nearestRank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// reportable is nearestRank that refuses a percentile with fewer than
// minBeyond samples beyond it.
func reportable(sorted []float64, p float64) (float64, error) {
	v, beyond := nearestRank(sorted, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d",
			p, len(sorted), beyond, minBeyond)
	}
	return v, nil
}

// median is the nearest-rank p50 of xs; xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	v, _ := nearestRank(xs, 50)
	return v
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally is one run's failure accounting. Every offered sample and every
// decision the reference replay produces is an attempt; a sample fails
// when it is shed or never reaches the pipeline, a decision fails when
// it is missing from the served stream, differs from the reference, or
// has no reference counterpart.
type tally struct {
	offered  int64 // raw samples the generator offered
	enqueued int64 // raw samples the sessions accepted (Counters.Enqueued)
	applied  int64 // raw samples the sessions applied (Session.Pos)
	shed     int64 // raw samples shed or rejected (Counters.Shed)
	expected int64 // decisions in the reference replay
	badDecs  int64 // decisions missing, differing or unexpected
}

// add merges another session's tally.
func (t *tally) add(o tally) {
	t.offered += o.offered
	t.enqueued += o.enqueued
	t.applied += o.applied
	t.shed += o.shed
	t.expected += o.expected
	t.badDecs += o.badDecs
}

// lostSamples counts offered samples that were refused, shed or never
// applied. Shed-oldest overflow still advances the pipeline (as
// missing data), so Shed alone counts it; a shed session stops
// applying, so the gap between offered and applied counts it,
// including the entry whose failure shed the session.
func (t tally) lostSamples() int64 {
	return max(t.offered-t.applied, t.offered-t.enqueued, t.shed, 0)
}

func (t tally) attempted() int64 { return t.offered + t.expected }

func (t tally) failed() int64 { return t.lostSamples() + t.badDecs }

// failShare is failed ÷ attempted.
func (t tally) failShare() float64 {
	return ratio(float64(t.failed()), float64(t.attempted()))
}
