package serve

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/imu"
)

// TestBreakerP99MatchesSortOracle: the selected percentile equals the
// nearest-rank 99th percentile of a sorted copy of the window — the
// ⌈0.99n⌉-th smallest latency — for every fill of windows of 1 to 300
// entries, over latencies with many ties and latencies up to 2^53 ns.
func TestBreakerP99MatchesSortOracle(t *testing.T) {
	draws := []struct {
		name string
		lat  func(rng *rand.Rand) time.Duration
	}{
		{"ties", func(rng *rand.Rand) time.Duration { return time.Duration(rng.Intn(4)) * time.Millisecond }},
		{"spread", func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(1 << 53)) }},
		{"top-heavy", func(rng *rand.Rand) time.Duration {
			if rng.Intn(50) == 0 {
				return 1 << 53
			}
			return time.Duration(rng.Intn(1000))
		}},
	}
	for _, d := range draws {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for size := 1; size <= 300; size++ {
				b := newBreaker(size)
				for i := 0; i < size+size/3; i++ { // fill, then wrap
					b.window[b.pos] = d.lat(rng)
					b.pos = (b.pos + 1) % size
					b.n = min(b.n+1, size)
					sorted := slices.Clone(b.window[:b.n])
					slices.Sort(sorted)
					want := sorted[(99*b.n+99)/100-1]
					if got := b.p99(); got != want {
						t.Fatalf("window %d holding %d: p99 %v, sorted oracle %v", size, b.n, got, want)
					}
				}
			}
		})
	}
}

// TestBreakerObserveAllocationFree: the breaker runs once per decision
// on the serving path and must stay off the heap.
func TestBreakerObserveAllocationFree(t *testing.T) {
	b := newBreaker(64)
	lat := time.Duration(0)
	if n := testing.AllocsPerRun(500, func() {
		lat += 37 * time.Microsecond
		b.observe(lat%(10*time.Millisecond), 150*time.Millisecond, 0.8, 0.5, 64)
	}); n != 0 {
		t.Fatalf("observe allocates %.1f/op", n)
	}
}

// stridePipe is a fakePipe that evaluates only every stride-th raw
// sample, as the cascade decides once per stride.
type stridePipe struct {
	fakePipe
	stride int
}

func (p *stridePipe) Push(acc, gyro imu.Vec3) cascade.Decision {
	d := p.fakePipe.Push(acc, gyro)
	d.Evaluated = p.raw%p.stride == 0
	return d
}

// TestClockReadsPerEntry pins how often a session reads its clock: once
// at enqueue for the deadline and once when the worker starts the
// entry, plus once more only when the entry produced a decision.
func TestClockReadsPerEntry(t *testing.T) {
	var reads atomic.Int64
	clk := NewVirtualClock()
	rt := New(Config{Now: func() time.Time { reads.Add(1); return clk.Now() }})
	s := rt.Open(&stridePipe{stride: 4})
	for i := 1; i <= 12; i++ {
		before := reads.Load()
		acc, gyro := sample(i)
		s.Push(acc, gyro)
		s.Quiesce()
		want := int64(2)
		if i%4 == 0 {
			want = 3
		}
		if got := reads.Load() - before; got != want {
			t.Fatalf("sample %d: %d clock reads, want %d", i, got, want)
		}
	}
	if c := s.Counters(); c.Decisions != 3 {
		t.Fatalf("%d decisions, want 3", c.Decisions)
	}
	rt.Close()
}
