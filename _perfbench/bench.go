package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/falldet"
)

const (
	// setupReps is how many times a run sets the fleet up; setup_s is
	// their median and the last set-up is the one measured.
	setupReps = 21
	// warmLen of rounds is pushed after set-up and before any
	// measurement, so every session has snapshotted, panicked and
	// restored, and its caches are warm.
	warmLen = time.Second
	// maxDecisionRate bounds the decisions per second the preallocated
	// logs hold, across all sessions (64k decisions/s is 1.28M samples/s,
	// several times what two cores serve today). A run that fills its
	// logs ends its measured phase early and says so.
	maxDecisionRate = 64_000
	// windowLen is the slice of a measured phase each throughput and
	// latency figure is taken over before the median across slices.
	windowLen = time.Second
)

// phase is one measured stretch of rounds, cut into windows.
type phase struct {
	windows []window
	allocB  uint64
	full    bool
}

// measure runs rounds for d in windowLen windows, counting the heap
// bytes allocated; with alternate, every other window is traced.
func measure(f *fleet, d time.Duration, alternate bool) phase {
	runtime.GC()
	var p phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.windows, p.full = f.runFor(d, windowLen, alternate)
	runtime.ReadMemStats(&m1)
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	if p.full {
		fmt.Printf("  note: decision logs filled; the phase ended early\n")
	}
	return p
}

// measureTraced repeats an untraced window, a traced window and one
// pass of the direct probes until d has passed, so the end-to-end
// figures, the traced spans and the probes all sample the same
// stretches of the host's time (a shared host drifts by tens of
// percent over minutes).
func measureTraced(f *fleet, d time.Duration, pr *probes, img []byte, cd *falldet.CascadeDetector) (phase, error) {
	var p phase
	start := time.Now()
	for time.Since(start) < d && !p.full {
		q := measure(f, 2*windowLen, true)
		p.windows = append(p.windows, q.windows...)
		p.allocB += q.allocB
		p.full = q.full
		if err := pr.pass(f.w, img, cd, f.streams); err != nil {
			return p, err
		}
	}
	return p, nil
}

// only returns the phase's windows that were (traced) or were not
// traced.
func (p phase) only(traced bool) phase {
	q := phase{full: p.full}
	for _, w := range p.windows {
		if w.traced == traced {
			q.windows = append(q.windows, w)
		}
	}
	return q
}

func (p phase) samples() (n int64) {
	for _, w := range p.windows {
		n += w.samples
	}
	return n
}

func (p phase) elapsed() (d time.Duration) {
	for _, w := range p.windows {
		d += w.elapsed
	}
	return d
}

// decisions returns the decisions logged in window w's rounds.
func (w window) decisions(f *fleet) []decision {
	var out []decision
	for _, r := range f.recs {
		for _, d := range r.log {
			if int(d.round) >= w.r0 && int(d.round) < w.r1 {
				out = append(out, d)
			}
		}
	}
	return out
}

// served is a phase's end-to-end figures: each is the median over the
// phase's windows of that window's throughput or latency percentile,
// so a disturbance of the host that spans less than half the phase
// does not move it.
type served struct {
	sps, p50, p99 float64
	windowSPS     []float64
	decisions     int // decisions in the phase
	minWindow     int // decisions in its smallest window
	minBeyond     int // fewest decisions beyond a window's p99
}

func (p phase) throughput() float64 { return ratio(float64(p.samples()), p.elapsed().Seconds()) }

func (p phase) served(f *fleet) (served, error) {
	var s served
	if len(p.windows) == 0 {
		return s, fmt.Errorf("phase has no complete window")
	}
	var sps, p50, p99 []float64
	s.minWindow, s.minBeyond = math.MaxInt, math.MaxInt
	for _, w := range p.windows {
		lat := latenciesMS(w.decisions(f))
		v99, err := reportable(lat, 99)
		if err != nil {
			return s, fmt.Errorf("decision_p99_ms: %w", err)
		}
		v50, _ := nearestRank(lat, 50)
		_, beyond := nearestRank(lat, 99)
		sps = append(sps, float64(w.samples)/w.elapsed.Seconds())
		p50 = append(p50, v50)
		p99 = append(p99, v99)
		s.decisions += len(lat)
		s.minWindow = min(s.minWindow, len(lat))
		s.minBeyond = min(s.minBeyond, beyond)
	}
	s.windowSPS = append([]float64(nil), sps...)
	s.sps, s.p50, s.p99 = median(sps), median(p50), median(p99)
	return s, nil
}

// allocLogs preallocates every session's decision log before anything
// is measured, so the logs are neither timed nor counted as heap.
func allocLogs(w workload, seconds int) [][]decision {
	per := maxDecisionRate*(seconds+int(warmLen/time.Second)+1)/w.sessions + 64
	logs := make([][]decision, w.sessions)
	for i := range logs {
		logs[i] = make([]decision, 0, per)
	}
	return logs
}

// setUp loads the bundle and opens the fleet setupReps times, each
// until every session has decided once, and keeps the last fleet. It
// returns the set-up times in seconds and the live heap just before
// the last fleet's sessions were built.
func setUp(w workload, img []byte, streams []stream, logs [][]decision, seed int64) (*fleet, *falldet.CascadeDetector, []float64, uint64, error) {
	var times []float64
	for {
		runtime.GC()
		t0 := time.Now()
		cd, err := falldet.LoadCascade(bytes.NewReader(img))
		load := time.Since(t0)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		// Outside the timed span: settle the heap so the last set-up
		// can take its before-opening reading.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t1 := time.Now()
		f, err := openFleet(w, cd, streams, logs, seed)
		if err == nil {
			if err = f.untilFirstDecisions(); err != nil {
				f.close()
			}
		}
		if err != nil {
			return nil, nil, nil, 0, err
		}
		times = append(times, (load + time.Since(t1)).Seconds())
		if len(times) == setupReps {
			return f, cd, times, ms.HeapAlloc, nil
		}
		f.close()
	}
}

// latenciesMS collects the decision latencies of ds in milliseconds,
// sorted.
func latenciesMS(ds []decision) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.lat) / 1e6
	}
	sort.Float64s(out)
	return out
}

// bench runs one workload and returns its result line.
func bench(w workload, m manifest, img []byte, seed int64, seconds int, traced bool) (result, error) {
	streams, err := makeStreams(w, seed)
	if err != nil {
		return result{}, err
	}
	logs := allocLogs(w, seconds)
	f, cd, setups, heapBefore, err := setUp(w, img, streams, logs, seed)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	f.runFor(warmLen, warmLen, false)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapKB := (float64(ms.HeapAlloc) - float64(heapBefore)) / float64(w.sessions) / 1024

	total := time.Duration(seconds) * time.Second
	var run phase
	var pr *probes
	if traced {
		if pr, err = newProbes(img); err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
		if run, err = measureTraced(f, total, pr, img, cd); err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
	} else {
		run = measure(f, total, false)
	}
	plain, tr := run.only(false), run.only(true)
	f.close()

	reps := verify(f, cd)
	var t tally
	var problems []string
	for _, r := range reps {
		t.add(r.t)
		if r.err != nil {
			problems = append(problems, r.err.Error())
		}
		problems = append(problems, r.notes...)
	}
	if lost := t.lostSamples(); lost > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d offered samples refused, shed or unapplied (enqueued %d, applied %d, shed %d)",
			lost, t.offered, t.enqueued, t.applied, t.shed))
	}
	if t.badDecs > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d decisions missing or different from the reference replay", t.badDecs, t.expected))
	}

	sv, err := plain.served(f)
	if err != nil {
		problems = append(problems, err.Error())
	}
	var logged int64
	for _, r := range f.recs {
		logged += int64(len(r.log))
	}
	if logged != f.drained {
		problems = append(problems, fmt.Sprintf("sessions emitted %d decisions, the recorders logged %d", f.drained, logged))
	}
	allocPerSample := ratio(float64(run.allocB), float64(run.samples()))
	setupS := median(append([]float64(nil), setups...))

	fmt.Printf("  %-22s %12.4f s        median of %d set-ups: %s\n", "setup_s", setupS, len(setups), fmtList(setups))
	fmt.Printf("  %-22s %12.0f samples/s median of %d windows; %d samples in %.2fs over %d sessions (%.0f wearers real-time)\n",
		"throughput_sps", sv.sps, len(plain.windows), plain.samples(), plain.elapsed().Seconds(), w.sessions, sv.sps/sampleRate)
	fmt.Printf("  %-22s %s\n", "  windows", fmtList(sv.windowSPS))
	fmt.Printf("  %-22s %12.4f ms       median of window p50s; %d decisions, >= %d a window\n", "decision_p50_ms", sv.p50, sv.decisions, sv.minWindow)
	fmt.Printf("  %-22s %12.4f ms       median of window p99s (nearest rank); >= %d beyond in every window\n", "decision_p99_ms", sv.p99, sv.minBeyond)
	fmt.Printf("  %-22s %12.2f KiB\n", "heap_per_session_kb", heapKB)
	fmt.Printf("  %-22s %12.4f B        %d B over %d samples\n", "alloc_b_per_sample", allocPerSample, run.allocB, run.samples())
	fmt.Printf("  %-22s %12.6f ratio    %d failed of %d attempted (%d samples + %d decisions)\n",
		"fail_share", t.failShare(), t.failed(), t.attempted(), t.offered, t.expected)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}

	res := result{
		Correct:   len(problems) == 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics:   map[string]metric{},
	}
	if !traced {
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["throughput_sps"] = metric{sv.sps, "samples/s"}
		res.Metrics["decision_p50_ms"] = metric{sv.p50, "ms"}
		res.Metrics["decision_p99_ms"] = metric{sv.p99, "ms"}
		res.Metrics["heap_per_session_kb"] = metric{heapKB, "KiB"}
		return res, nil
	}
	layers, more := layerMetrics(f, reps, plain, tr, pr, m)
	for _, p := range more {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	res.Correct = res.Correct && len(more) == 0
	layers["serve.alloc_b_per_sample"] = metric{allocPerSample, "B"}
	res.Metrics = layers
	return res, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
