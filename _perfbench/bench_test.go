package main

import (
	"bytes"
	"math"
	"testing"

	"repro/falldet"
	"repro/internal/serve"
)

func TestNearestRankAndBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := nearestRank(xs, 50); v != 500 || beyond != 500 {
		t.Fatalf("p50 of 1..1000 = %v with %d beyond, want 500 with 500", v, beyond)
	}
	if v, beyond := nearestRank(xs, 99); v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, err := reportable(xs, 99); err != nil || v != 990 {
		t.Fatalf("p99 over 1000 samples: %v, %v; want 990 and reportable", v, err)
	}
	// 999 samples: rank ⌈989.01⌉ = 990 leaves 9 beyond, too few.
	if _, err := reportable(xs[:999], 99); err == nil {
		t.Fatal("p99 over 999 samples reported with 9 beyond")
	}
	if v, beyond := nearestRank(xs[:1], 99); v != 1 || beyond != 0 {
		t.Fatalf("p99 of one sample = %v with %d beyond", v, beyond)
	}
	if v, _ := nearestRank(nil, 50); !math.IsNaN(v) {
		t.Fatalf("percentile of nothing = %v, want NaN", v)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestFailShareAccounting(t *testing.T) {
	cases := []struct {
		name         string
		t            tally
		lost, failed int64
		attempted    int64
	}{
		{"healthy", tally{offered: 100, enqueued: 100, applied: 100, expected: 5}, 0, 0, 105},
		// Shed-oldest overflow still advances the pipeline as missing data.
		{"shed oldest", tally{offered: 100, enqueued: 100, applied: 100, shed: 7, expected: 5}, 7, 7, 105},
		// A shed session drops its queue and refuses the rest; the entry
		// that shed it is in neither Pos nor Shed.
		{"shed session", tally{offered: 100, enqueued: 70, applied: 60, shed: 39, expected: 5}, 40, 40, 105},
		{"refused, not counted", tally{offered: 100, enqueued: 90, applied: 100, expected: 5}, 10, 10, 105},
		{"bad decisions", tally{offered: 100, enqueued: 100, applied: 100, expected: 5, badDecs: 2}, 0, 2, 105},
	}
	for _, c := range cases {
		if got := c.t.lostSamples(); got != c.lost {
			t.Errorf("%s: lost %d, want %d", c.name, got, c.lost)
		}
		if got := c.t.failed(); got != c.failed {
			t.Errorf("%s: failed %d, want %d", c.name, got, c.failed)
		}
		if got := c.t.attempted(); got != c.attempted {
			t.Errorf("%s: attempted %d, want %d", c.name, got, c.attempted)
		}
		if got, want := c.t.failShare(), float64(c.failed)/float64(c.attempted); got != want {
			t.Errorf("%s: fail share %v, want %v", c.name, got, want)
		}
	}
	var sum tally
	for _, c := range cases[:2] {
		sum.add(c.t)
	}
	if sum.offered != 200 || sum.failed() != 7 || sum.attempted() != 210 {
		t.Fatalf("summed tally %+v", sum)
	}
}

// panics reports whether the plan's hook panics at pos.
func panics(p *panicPlan, pos uint64) (fired bool) {
	defer func() { fired = recover() != nil }()
	p.hook(pos)
	return false
}

func TestPanicPlanIsOneShot(t *testing.T) {
	p := newPanicPlan(3, 0)
	first := p.next
	if first < panicGapMin || first >= panicGapMin+panicGapSpan {
		t.Fatalf("first panic at %d, outside [%d, %d)", first, panicGapMin, panicGapMin+panicGapSpan)
	}
	for pos := uint64(0); pos < first; pos++ {
		if panics(p, pos) {
			t.Fatalf("panicked early at %d", pos)
		}
	}
	if !panics(p, first) {
		t.Fatalf("no panic at %d", first)
	}
	// The restore replays positions up to and including the panicking
	// entry; none may fire again.
	for pos := first - panicGapMin; pos <= first; pos++ {
		if panics(p, pos) {
			t.Fatalf("re-fired at %d on replay", pos)
		}
	}
	if p.next <= first {
		t.Fatalf("next panic %d not past %d", p.next, first)
	}
	// The schedule depends on the seed and session alone.
	q := newPanicPlan(3, 0)
	if q.next != first {
		t.Fatalf("same seed, first panic %d then %d", first, q.next)
	}
}

// TestServedChaosMatchesReplay serves two faulted sessions with
// injected panics and checks that every panic restarted its session
// exactly once (the hook does not re-fire on replay) and that the
// served decisions match the reference replay.
func TestServedChaosMatchesReplay(t *testing.T) {
	m, err := readManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	img, err := readBundle(".", m.Bundle.File, m.Bundle.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := falldet.LoadCascade(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	w := workload{name: "test", f32: true, sessions: 2, faults: true,
		cfg: serve.Config{QueueLen: 64, SnapshotEvery: 64}}
	const seed = 5
	streams, err := makeStreams(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	logs := [][]decision{make([]decision, 0, 512), make([]decision, 0, 512)}
	f, err := openFleet(w, cd, streams, logs, seed)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 150; r++ {
		f.pushRound()
	}
	f.close()

	var want int64
	for i, s := range f.sess {
		p := newPanicPlan(seed, i)
		for p.next < s.Pos() {
			want++
			p.next += p.gap()
		}
	}
	c := f.rt.Counters()
	if want == 0 || c.Panics != want || c.Restarts != want {
		t.Fatalf("panics %d, restarts %d; the plan placed %d below the final positions", c.Panics, c.Restarts, want)
	}
	var sum tally
	for _, r := range verify(f, cd) {
		if r.err != nil {
			t.Fatal(r.err)
		}
		for _, n := range r.notes {
			t.Error(n)
		}
		sum.add(r.t)
	}
	if sum.failed() != 0 || sum.expected == 0 {
		t.Fatalf("tally %+v: %d failed", sum, sum.failed())
	}
	if logged := int64(len(f.recs[0].log) + len(f.recs[1].log)); logged != f.drained {
		t.Fatalf("logged %d decisions, sessions emitted %d", logged, f.drained)
	}
}
