package serve

import (
	"sync"
	"testing"
)

// TestRuntimeAggregatesAllocationFree: the operator queries walk the
// session table in place, so a lock-step driver can call Quiesce,
// Counters and StateCounts every round without feeding the heap.
func TestRuntimeAggregatesAllocationFree(t *testing.T) {
	leak := StartLeakCheck()
	rt := New(Config{QueueLen: 64})
	for i := 0; i < 8; i++ {
		rt.Open(&fakePipe{})
	}
	rt.Quiesce()
	for name, f := range map[string]func(){
		"Quiesce":     rt.Quiesce,
		"Counters":    func() { _ = rt.Counters() },
		"StateCounts": func() { _ = rt.StateCounts() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s over idle sessions allocates %.1f/op", name, n)
		}
	}
	rt.Close()
	checkLeak(t, leak)
}

// TestRuntimeOpenDuringQuiesce: Open appends to the session table
// while Quiesce, Counters and StateCounts read it without copying. Run
// under -race; every session opened must also be counted at the end.
func TestRuntimeOpenDuringQuiesce(t *testing.T) {
	leak := StartLeakCheck()
	rt := New(Config{QueueLen: 64})
	const openers, each = 4, 16
	var wg sync.WaitGroup
	for g := 0; g < openers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := rt.Open(&fakePipe{})
				acc, gyro := sample(i)
				s.Push(acc, gyro)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		rt.Quiesce()
		_ = rt.Counters()
		_ = rt.StateCounts()
	}
	rt.Quiesce()
	if c := rt.Counters(); c.Enqueued != openers*each || c.Decisions != openers*each {
		t.Fatalf("counters %+v, want %d enqueued and decided", c, openers*each)
	}
	if counts := rt.StateCounts(); counts[StateHealthy] != openers*each {
		t.Fatalf("state counts %v, want %d healthy", counts, openers*each)
	}
	rt.Close()
	checkLeak(t, leak)
}
