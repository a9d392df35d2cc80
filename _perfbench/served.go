package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"repro/falldet"
	"repro/internal/cascade"
	"repro/internal/edge"
	"repro/internal/imu"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// pipe is the cascade surface the benchmark drives, at either width.
type pipe interface {
	serve.Pipeline
	TierEvals() [cascade.NumTiers]int
	faultStats() edge.FaultStats
}

type cascadeAt[S tensor.Scalar] struct{ *cascade.CascadeOf[S] }

func (c cascadeAt[S]) faultStats() edge.FaultStats { return c.Detector().Stats() }

// newPipe builds and lowers one session's cascade.
func newPipe(cd *falldet.CascadeDetector, f32 bool) (pipe, error) {
	if f32 {
		c, err := cd.StreamF32()
		if err != nil {
			return nil, err
		}
		return cascadeAt[float32]{c}, nil
	}
	c, err := cd.Stream()
	if err != nil {
		return nil, err
	}
	return cascadeAt[float64]{c}, nil
}

// roundClock publishes the generator's rounds to the session workers.
// Times are monotonic nanoseconds since base.
type roundClock struct {
	base  time.Time
	start atomic.Int64 // when the current round's packets arrived
	id    atomic.Int64 // the current round's number
	trace atomic.Bool  // time every call into the cascade
}

func newRoundClock() *roundClock { return &roundClock{base: time.Now()} }

func (c *roundClock) now() int64 { return int64(time.Since(c.base)) }

// decision is one logged decision, served or replayed.
type decision struct {
	prob  uint64 // math.Float64bits(Probability)
	pos   uint32 // raw stream position just after the deciding sample
	round uint32 // the generator round the decision came in
	lat   int32  // ns from the round's start to the decision's return
	qwait int32  // traced: ns from the round's start to its first cascade call
	self  int32  // traced: lat minus the cascade calls it covers
	tier  uint8
	trig  bool
}

// same reports whether two decisions agree bit for bit.
func (d decision) same(o decision) bool {
	return d.prob == o.prob && d.pos == o.pos && d.tier == o.tier && d.trig == o.trig
}

func clamp32(ns int64) int32 {
	if ns > math.MaxInt32 {
		return math.MaxInt32
	}
	if ns < math.MinInt32 {
		return math.MinInt32
	}
	return int32(ns)
}

// recorder is the serve.Pipeline the benchmark hands each session: it
// forwards to the session's cascade and logs every decision at a
// stream position the cascade has not passed before, stamped with the
// time since its round started. Snapshots carry the position, so after
// a restore the recorder knows which pushes are replays and does not
// log them again. With the clock's trace flag set it also times every
// call into the cascade. All fields belong to the session's worker;
// the generator reads them only after Quiesce or Close.
type recorder struct {
	inner pipe
	clock *roundClock

	pos      uint64     // raw samples applied since the cascade's cold start
	hi       uint64     // highest position ever applied
	log      []decision // preallocated; never grown
	overflow bool       // a decision did not fit in log
	applied  uint64     // raw samples applied, replays included
	ceiling  int        // highest tier ceiling serve imposed

	// Traced accumulators.
	round               int64 // round of the last traced call (-1 before any)
	roundT0             int64 // start of the round's first cascade call
	inRound             int64 // ns of cascade calls in the current round
	pushNs, pushN       int64 // Push/PushMissing time and raw samples
	snapNs, snapN       int64
	snapBytes           int64 // cascade snapshot bytes (position prefix excluded)
	restoreNs, restoreN int64
}

func (r *recorder) Push(acc, gyro imu.Vec3) cascade.Decision {
	if !r.clock.trace.Load() {
		return r.note(r.inner.Push(acc, gyro), 1, 0)
	}
	t0 := r.begin()
	d := r.inner.Push(acc, gyro)
	t1 := r.end(t0)
	r.pushNs += t1 - t0
	r.pushN++
	return r.note(d, 1, t1)
}

func (r *recorder) PushMissing(n int) cascade.Decision {
	if !r.clock.trace.Load() {
		return r.note(r.inner.PushMissing(n), uint64(n), 0)
	}
	t0 := r.begin()
	d := r.inner.PushMissing(n)
	t1 := r.end(t0)
	r.pushNs += t1 - t0
	r.pushN += int64(n)
	return r.note(d, uint64(n), t1)
}

// begin opens a traced span; the round's first call also stamps the
// round's queue wait.
func (r *recorder) begin() int64 {
	t := r.clock.now()
	if id := r.clock.id.Load(); id != r.round {
		r.round, r.roundT0, r.inRound = id, t, 0
	}
	return t
}

// end closes a traced span opened at t0 and returns the time.
func (r *recorder) end(t0 int64) int64 {
	t := r.clock.now()
	r.inRound += t - t0
	return t
}

// note advances the position by n and logs d if it is a new decision.
// at is the traced end time of the call, 0 when untraced.
func (r *recorder) note(d cascade.Decision, n uint64, at int64) cascade.Decision {
	r.pos += n
	r.applied += n
	if r.pos <= r.hi {
		return d // a replay after a restore
	}
	r.hi = r.pos
	if !d.Evaluated {
		return d
	}
	if len(r.log) == cap(r.log) {
		r.overflow = true
		return d
	}
	if at == 0 {
		at = r.clock.now()
	}
	start := r.clock.start.Load()
	rec := decision{
		prob:  math.Float64bits(d.Probability),
		pos:   uint32(r.pos),
		round: uint32(r.clock.id.Load()),
		lat:   clamp32(at - start),
		tier:  uint8(d.Tier),
		trig:  d.Triggered,
	}
	if r.clock.trace.Load() {
		rec.qwait = clamp32(r.roundT0 - start)
		rec.self = clamp32(at - start - r.inRound)
	}
	r.log = append(r.log, rec)
	return d
}

// AppendSnapshot prefixes the cascade's snapshot with the position.
func (r *recorder) AppendSnapshot(dst []byte) ([]byte, error) {
	traced := r.clock.trace.Load()
	var t0 int64
	if traced {
		t0 = r.begin()
	}
	n0 := len(dst)
	out, err := r.inner.AppendSnapshot(binary.LittleEndian.AppendUint64(dst, r.pos))
	if traced {
		r.snapNs += r.end(t0) - t0
		r.snapN++
		r.snapBytes += int64(len(out) - n0 - 8)
	}
	return out, err
}

func (r *recorder) RestoreFresh(rd io.Reader) error {
	traced := r.clock.trace.Load()
	var t0 int64
	if traced {
		t0 = r.begin()
	}
	var hdr [8]byte
	r.pos = 0
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		r.inner.Reset()
		return fmt.Errorf("snapshot position: %w", err)
	}
	if err := r.inner.RestoreFresh(rd); err != nil {
		return err
	}
	r.pos = binary.LittleEndian.Uint64(hdr[:])
	if traced {
		r.restoreNs += r.end(t0) - t0
		r.restoreN++
	}
	return nil
}

func (r *recorder) Reset() {
	r.inner.Reset()
	r.pos = 0
}

func (r *recorder) SetTierCeiling(t cascade.Tier) {
	r.inner.SetTierCeiling(t)
	if int(t) > r.ceiling {
		r.ceiling = int(t)
	}
}

// fleet is one workload's sessions on one serve.Runtime, fed by a
// single generator goroutine in lock-step rounds: each round sends one
// stride of every session's stream, then waits until every session
// has applied it.
type fleet struct {
	w       workload
	streams []stream
	clock   *roundClock
	rt      *serve.Runtime
	sess    []*serve.Session
	recs    []*recorder
	offered []int64 // raw samples offered per session
	rounds  int
	drained int64              // decisions drained from the outboxes
	outbox  []cascade.Decision // reused drain buffer

	enqNs, enqN int64 // traced Session.Push/PushMissing time and calls
}

// openFleet builds, lowers and opens one cascade per session. logs
// holds each session's preallocated decision log.
func openFleet(w workload, cd *falldet.CascadeDetector, streams []stream, logs [][]decision, seed int64) (*fleet, error) {
	cfg := w.cfg
	if w.faults {
		plans := make([]*panicPlan, w.sessions)
		for i := range plans {
			plans[i] = newPanicPlan(seed, i)
		}
		cfg.PushHook = panicHook(plans)
	}
	f := &fleet{
		w:       w,
		streams: streams,
		clock:   newRoundClock(),
		rt:      serve.New(cfg),
		offered: make([]int64, w.sessions),
		outbox:  make([]cascade.Decision, 0, 64),
	}
	for i := 0; i < w.sessions; i++ {
		p, err := newPipe(cd, w.f32)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		r := &recorder{inner: p, clock: f.clock, log: logs[i][:0], round: -1}
		s := f.rt.Open(r)
		if s == nil || s.ID != i {
			f.close()
			return nil, fmt.Errorf("session %d: open failed", i)
		}
		f.sess = append(f.sess, s)
		f.recs = append(f.recs, r)
	}
	return f, nil
}

func (f *fleet) close() { f.rt.Close() }

// pushRound sends round f.rounds to every session and waits for it.
func (f *fleet) pushRound() {
	c := f.clock
	traced := c.trace.Load()
	c.id.Store(int64(f.rounds))
	c.start.Store(c.now())
	for i, s := range f.sess {
		ops := f.streams[i].round(f.rounds)
		var t0 int64
		if traced {
			t0 = c.now()
		}
		for j := range ops {
			if ops[j].missing {
				s.PushMissing(1)
			} else {
				s.Push(ops[j].acc, ops[j].gyro)
			}
		}
		if traced {
			f.enqNs += c.now() - t0
			f.enqN += int64(len(ops))
		}
		f.offered[i] += int64(len(ops))
	}
	f.rt.Quiesce()
	for _, s := range f.sess {
		f.outbox = s.DrainDecisions(f.outbox[:0])
		f.drained += int64(len(f.outbox))
	}
	f.rounds++
}

// untilFirstDecisions pushes rounds until every session has decided.
func (f *fleet) untilFirstDecisions() error {
	for n := 0; n < 16; n++ {
		f.pushRound()
		done := true
		for _, r := range f.recs {
			if len(r.log) == 0 {
				done = false
				break
			}
		}
		if done {
			return nil
		}
	}
	return fmt.Errorf("sessions still undecided after %d rounds", f.rounds)
}

// logsNearlyFull reports whether some session's log could overflow in
// the next round.
func (f *fleet) logsNearlyFull() bool {
	for _, r := range f.recs {
		if cap(r.log)-len(r.log) < 4 {
			return true
		}
	}
	return false
}

// window is one timed slice of a measured phase: rounds [r0, r1).
type window struct {
	traced  bool
	r0, r1  int
	samples int64
	elapsed time.Duration
}

// runFor pushes rounds for d (or until the logs are nearly full),
// cutting the time into windows of about win each. With alternate the
// windows take turns with tracing off and on, starting off, so the
// untraced and traced figures come from interleaved stretches of the
// same run.
func (f *fleet) runFor(d, win time.Duration, alternate bool) (ws []window, full bool) {
	ws = make([]window, 0, int(d/win)+1)
	start := time.Now()
	f.clock.trace.Store(false)
	defer f.clock.trace.Store(false)
	cur := window{r0: f.rounds}
	base, wstart := f.totalOffered(), start
	for time.Since(start) < d {
		if f.logsNearlyFull() {
			full = true
			break
		}
		f.pushRound()
		if now := time.Since(wstart); now >= win {
			cur.r1, cur.samples, cur.elapsed = f.rounds, f.totalOffered()-base, now
			ws = append(ws, cur)
			next := alternate && !cur.traced
			f.clock.trace.Store(next)
			cur = window{traced: next, r0: f.rounds}
			base, wstart = f.totalOffered(), time.Now()
		}
	}
	if now := time.Since(wstart); now >= win/2 {
		cur.r1, cur.samples, cur.elapsed = f.rounds, f.totalOffered()-base, now
		ws = append(ws, cur)
	}
	return ws, full
}

func (f *fleet) totalOffered() int64 {
	var n int64
	for _, o := range f.offered {
		n += o
	}
	return n
}
