package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/falldet"
	"repro/internal/cascade"
	"repro/internal/edge"
)

// replayed is what the reference replay of one session found.
type replayed struct {
	t     tally
	evals [cascade.NumTiers]int
	stats edge.FaultStats
	notes []string // first mismatches, for the error report
	err   error
}

// verify is the correctness gate, run after the sessions are closed:
// it replays each session's exact offered input through a fresh
// single-threaded cascade at the same width and compares the decision
// streams bit for bit (Evaluated, Tier, Triggered and the bits of
// Probability), sessions restored after injected panics included. It
// also checks the sample accounting: every offered sample enqueued and
// applied, none shed. Sessions replay in parallel on GOMAXPROCS
// goroutines; each replay is sequential.
func verify(f *fleet, cd *falldet.CascadeDetector) []replayed {
	out := make([]replayed, len(f.sess))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(out); i += workers {
				out[i] = verifySession(f, cd, i)
			}
		}(w)
	}
	wg.Wait()
	return out
}

func verifySession(f *fleet, cd *falldet.CascadeDetector, i int) replayed {
	var res replayed
	rec, s := f.recs[i], f.sess[i]
	c := s.Counters()
	res.t = tally{offered: f.offered[i], enqueued: c.Enqueued, applied: int64(s.Pos()), shed: c.Shed}
	if rec.overflow {
		res.err = fmt.Errorf("session %d: decision log overflowed", i)
		return res
	}
	ref, err := newPipe(cd, f.w.f32)
	if err != nil {
		res.err = err
		return res
	}
	note := func(n int64, format string, args ...any) {
		res.t.badDecs += n
		if len(res.notes) < 3 {
			res.notes = append(res.notes, fmt.Sprintf("session %d: "+format, append([]any{i}, args...)...))
		}
	}
	served := rec.log
	k := 0
	var pos uint32
	for r := 0; r < f.rounds; r++ {
		for _, o := range f.streams[i].round(r) {
			var d cascade.Decision
			if o.missing {
				d = ref.PushMissing(1)
			} else {
				d = ref.Push(o.acc, o.gyro)
			}
			pos++
			if !d.Evaluated {
				continue
			}
			res.t.expected++
			want := decision{prob: math.Float64bits(d.Probability), pos: pos, tier: uint8(d.Tier), trig: d.Triggered}
			switch {
			case k >= len(served):
				note(1, "decision at %d missing from the served stream", pos)
			case !served[k].same(want):
				note(1, "decision %d differs: served pos %d tier %d trig %v p %v, reference pos %d tier %d trig %v p %v",
					k, served[k].pos, served[k].tier, served[k].trig, math.Float64frombits(served[k].prob),
					want.pos, want.tier, want.trig, d.Probability)
			}
			k++
		}
	}
	if extra := len(served) - k; extra > 0 {
		note(int64(extra), "%d served decisions beyond the reference's %d", extra, k)
	}
	res.evals = ref.TierEvals()
	res.stats = ref.faultStats()
	return res
}
