package serve

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cascade"
	"repro/internal/edge"
	"repro/internal/guard"
	"repro/internal/imu"
)

// Session is one supervised stream: a bounded ingress ring feeding a
// dedicated worker goroutine that drives the session's Pipeline.
// Producers push samples from any goroutine and never block; the
// worker owns the pipeline exclusively, so a panic inside it is
// confined to this session and recovered by snapshot restore + replay.
type Session struct {
	// ID is the runtime-assigned index, stable for the session's
	// lifetime; the PushHook receives it.
	ID int

	cfg Config
	p   Pipeline

	mu   sync.Mutex
	idle *sync.Cond // broadcast on enqueue and on idle/exit transitions
	//fallvet:derived in-memory ingress ring: a restore replays the log and the ring drains live, in-process
	q       ring
	closing bool //fallvet:derived worker lifecycle flag, meaningless across a restore
	busy    bool //fallvet:derived worker lifecycle flag, meaningless across a restore
	done    bool //fallvet:derived worker lifecycle flag (worker exited), meaningless across a restore

	state atomic.Int32
	level atomic.Int32 // breaker level, mirrored for lock-free reads

	// pos is the raw stream position: samples fully applied and
	// emitted. Written only by the worker, read from anywhere.
	pos atomic.Uint64

	// Replay state, owned by the worker goroutine (never locked).
	snapImg   []byte // last good snapshot (nil before the first)
	snapSpare []byte // retired snapshot buffer, reused for the next
	snapPos   uint64 // pos at which snapImg was captured
	replayLog []record
	sinceSnap int
	//fallvet:derived host-local latency history, rebuilt from live decision timings after a restore
	brk breaker

	outMu sync.Mutex
	//fallvet:derived outbox of already-delivered decisions; replay regenerates or deliberately drops them
	out []cascade.Decision
	//fallvet:derived latched trigger is re-latched by replay if it recurs; delivery state is host-local
	trig cascade.Decision
	//fallvet:derived latched trigger is re-latched by replay if it recurs; delivery state is host-local
	trigSet bool

	enqueued, shedN, deadlineMissed, decisions, triggers atomic.Int64
	panics, restarts, snapshots, outboxDropped           atomic.Int64

	exit chan struct{} // closed when the worker returns
}

// appliedOut is what one dequeued entry produced: the decision for
// the shed debt in front of it (if any), then the entry's own.
type appliedOut struct {
	shed    cascade.Decision
	hasShed bool
	main    cascade.Decision
}

func newSession(id int, p Pipeline, cfg Config) *Session {
	s := &Session{
		ID:   id,
		cfg:  cfg,
		p:    p,
		q:    newRing(cfg.QueueLen),
		out:  make([]cascade.Decision, 0, cfg.OutboxLen),
		brk:  newBreaker(cfg.BreakerWindow),
		exit: make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	if cfg.SnapshotEvery > 0 {
		s.replayLog = make([]record, 0, cfg.SnapshotEvery)
	}
	go s.run()
	return s
}

// Push enqueues one sample. It never blocks: a full ring sheds its
// oldest entry (accounted as missing samples on the next drain).
// It returns false — and counts the sample as shed — once the session
// is closed or shed.
func (s *Session) Push(acc, gyro imu.Vec3) bool {
	return s.enqueue(entry{record: record{acc: acc, gyro: gyro}}, 1)
}

// PushMissing enqueues a run of n samples the stream failed to
// deliver, with the same non-blocking contract as Push.
func (s *Session) PushMissing(n int) bool {
	if n <= 0 {
		return true
	}
	return s.enqueue(entry{record: record{missing: n}}, n)
}

func (s *Session) enqueue(e entry, raw int) bool {
	s.mu.Lock()
	if s.closing || s.done {
		s.mu.Unlock()
		s.shedN.Add(int64(raw))
		return false
	}
	e.deadline = s.cfg.Now().Add(s.cfg.Deadline)
	shed := s.q.push(e)
	s.enqueued.Add(int64(raw))
	if shed > 0 {
		s.shedN.Add(int64(shed))
	}
	s.idle.Broadcast()
	s.mu.Unlock()
	return true
}

// run is the worker loop: drain the ring, apply entries under the
// crash barrier, exit when closed (after the backlog) or shed.
func (s *Session) run() {
	defer close(s.exit)
	for {
		s.mu.Lock()
		for s.q.n == 0 && !s.closing {
			s.idle.Wait()
		}
		if s.q.n == 0 { // closing, backlog drained
			s.done = true
			s.idle.Broadcast()
			s.mu.Unlock()
			return
		}
		e := s.q.pop()
		s.busy = true
		s.mu.Unlock()

		ok := s.applyEntry(e)

		s.mu.Lock()
		s.busy = false
		if !ok {
			// Restarts exhausted: shed the session, drop the backlog.
			s.setState(StateShed)
			s.closing = true
			s.done = true
			dropped := 0
			for s.q.n > 0 {
				dropped += s.q.pop().raw()
			}
			s.shedN.Add(int64(dropped))
			s.idle.Broadcast()
			s.mu.Unlock()
			return
		}
		if s.q.n == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}

// applyEntry applies one entry with panic isolation. On panic it runs
// the restart protocol; false means the session must be shed.
func (s *Session) applyEntry(e entry) bool {
	start := s.cfg.Now()
	out, err := s.applyOnce(e, s.pos.Load())
	restarted := false
	if err != nil {
		s.panics.Add(1)
		s.setState(StateFaulted)
		s.logf("session %d: pipeline panic at sample %d: %v", s.ID, s.pos.Load(), err)
		out, err = s.restartWithBackoff(e)
		if err != nil {
			s.logf("session %d: shedding after %d failed restarts: %v",
				s.ID, s.cfg.MaxRestarts, err)
			return false
		}
		restarted = true
	}
	s.commit(e, out, start)
	if restarted && s.cfg.SnapshotEvery > 0 {
		// Re-anchor immediately so the fault window is never replayed
		// twice and the next crash restores past it.
		s.takeSnapshot()
	}
	return true
}

// applyOnce drives the pipeline for one entry under a recover
// barrier; a panic comes back as a *guard.PanicError with the stack.
func (s *Session) applyOnce(e entry, pos uint64) (out appliedOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &guard.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if h := s.cfg.PushHook; h != nil {
		h(s.ID, pos)
	}
	if e.shedBefore > 0 {
		out.shed = s.p.PushMissing(e.shedBefore)
		out.hasShed = true
	}
	if e.missing > 0 {
		out.main = s.p.PushMissing(e.missing)
	} else {
		out.main = s.p.Push(e.acc, e.gyro)
	}
	return out, nil
}

// restartWithBackoff runs the restore-and-replay protocol under
// guard.Run: up to MaxRestarts attempts with exponential backoff,
// each attempt restoring the last snapshot and replaying the log.
// Replay panics (a fault that reproduces deterministically) consume
// attempts and eventually surface as a *guard.ExhaustedError.
func (s *Session) restartWithBackoff(e entry) (appliedOut, error) {
	var out appliedOut
	gcfg := guard.Config{
		Attempts:  s.cfg.MaxRestarts,
		BaseDelay: s.cfg.RestartBackoff,
		MaxDelay:  s.cfg.RestartMaxDelay,
		Log:       s.cfg.Log,
	}
	err := guard.Run(gcfg, fmt.Sprintf("session-%d-restart", s.ID), func() error {
		s.restarts.Add(1)
		var rerr error
		out, rerr = s.restoreReplay(e)
		return rerr
	})
	return out, err
}

// restoreReplay rebuilds the pipeline to the exact state it had
// before the faulting entry: restore the last snapshot (or reset,
// when none exists yet), replay every logged entry with emission
// suppressed — consumers already saw those decisions — and finally
// re-apply the faulting entry for real. The replay fires PushHook at
// the historical positions, so a deterministic fault re-fires and
// consumes restart attempts instead of looping forever.
func (s *Session) restoreReplay(cur entry) (appliedOut, error) {
	if s.snapImg != nil {
		if err := s.p.RestoreFresh(bytes.NewReader(s.snapImg)); err != nil {
			return appliedOut{}, fmt.Errorf("session %d: snapshot restore: %w", s.ID, err)
		}
	} else {
		// No snapshot yet: the replay log (when snapshots are
		// enabled) still covers the whole history, so a reset plus
		// replay reconstructs the state; with snapshots disabled the
		// pipeline restarts cold and re-warms.
		s.p.Reset()
	}
	pos := s.snapPos
	for i := range s.replayLog {
		le := s.replayLog[i]
		if h := s.cfg.PushHook; h != nil {
			h(s.ID, pos)
		}
		if le.shedBefore > 0 {
			s.p.PushMissing(le.shedBefore)
		}
		if le.missing > 0 {
			s.p.PushMissing(le.missing)
		} else {
			s.p.Push(le.acc, le.gyro)
		}
		pos += uint64(le.raw())
	}
	return s.applyOnce(cur, s.pos.Load())
}

// commit publishes the outcome of a fully-applied entry: advance the
// stream position, log for replay, emit decisions, account the
// deadline, feed the breaker, refresh health, snapshot at cadence.
func (s *Session) commit(e entry, out appliedOut, start time.Time) {
	raw := e.raw()
	s.pos.Add(uint64(raw))
	if s.cfg.SnapshotEvery > 0 {
		s.replayLog = append(s.replayLog, e.record)
		s.sinceSnap += raw
	}
	evaluated := out.main.Evaluated || (out.hasShed && out.shed.Evaluated)
	if out.hasShed {
		s.emit(out.shed)
	}
	s.emit(out.main)
	if evaluated {
		// Only a decision is timed: the clock is read here, not per
		// entry.
		now := s.cfg.Now()
		if now.After(e.deadline) {
			s.deadlineMissed.Add(1)
		}
		lvl, changed := s.brk.observe(now.Sub(start), s.cfg.Deadline,
			s.cfg.BreakerTrip, s.cfg.BreakerClear, s.cfg.BreakerHold)
		if changed {
			s.level.Store(int32(lvl))
			s.p.SetTierCeiling(breakerCeiling(lvl))
			s.logf("session %d: breaker level %d (tier ceiling %v)",
				s.ID, lvl, breakerCeiling(lvl))
		}
	}
	st := StateHealthy
	if s.level.Load() > 0 || out.main.Health != edge.HealthHealthy {
		st = StateDegraded
	}
	s.setState(st)
	if s.cfg.SnapshotEvery > 0 && s.sinceSnap >= s.cfg.SnapshotEvery {
		s.takeSnapshot()
	}
}

// emit appends an evaluated decision to the outbox (aging out the
// oldest when full) and latches the first trigger, which is never
// dropped: an airbag fire command must survive a slow consumer.
func (s *Session) emit(d cascade.Decision) {
	if !d.Evaluated {
		return
	}
	s.decisions.Add(1)
	if d.Triggered {
		s.triggers.Add(1)
	}
	s.outMu.Lock()
	if d.Triggered && !s.trigSet {
		s.trig, s.trigSet = d, true
	}
	if len(s.out) == cap(s.out) {
		copy(s.out, s.out[1:])
		s.out = s.out[:len(s.out)-1]
		s.outboxDropped.Add(1)
	}
	s.out = append(s.out, d)
	s.outMu.Unlock()
}

func (s *Session) takeSnapshot() {
	// Two buffers ping-pong: the pipeline serialises into the retired
	// one while the last good image stays intact in case it fails
	// mid-way, then the roles swap. Steady state allocates nothing —
	// this was the last per-checkpoint allocation on the push path.
	img, err := s.p.AppendSnapshot(s.snapSpare[:0])
	if err != nil {
		// Keep the previous snapshot and the (growing) log; the next
		// cadence point retries.
		s.logf("session %d: snapshot failed: %v", s.ID, err)
		return
	}
	s.snapImg, s.snapSpare = img, s.snapImg
	s.snapPos = s.pos.Load()
	s.replayLog = s.replayLog[:0]
	s.sinceSnap = 0
	s.snapshots.Add(1)
}

// setState updates the published state; StateShed is terminal.
func (s *Session) setState(st State) {
	if State(s.state.Load()) == StateShed {
		return
	}
	s.state.Store(int32(st))
}

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// State reports the session's supervised health.
func (s *Session) State() State { return State(s.state.Load()) }

// BreakerLevel reports the latency breaker's current level
// (0 = unconstrained, 1 = accel-CNN ceiling, 2 = threshold floor).
func (s *Session) BreakerLevel() int { return int(s.level.Load()) }

// Pos reports the raw stream position: samples fully applied,
// missing and shed runs included.
func (s *Session) Pos() uint64 { return s.pos.Load() }

// Counters snapshots the session's accounting. Safe from any
// goroutine, including while the worker is mid-entry.
func (s *Session) Counters() Counters {
	return Counters{
		Enqueued:       s.enqueued.Load(),
		Shed:           s.shedN.Load(),
		DeadlineMissed: s.deadlineMissed.Load(),
		Decisions:      s.decisions.Load(),
		Triggers:       s.triggers.Load(),
		Panics:         s.panics.Load(),
		Restarts:       s.restarts.Load(),
		Snapshots:      s.snapshots.Load(),
		OutboxDropped:  s.outboxDropped.Load(),
	}
}

// DrainDecisions appends the outbox to dst (oldest first) and clears
// it.
func (s *Session) DrainDecisions(dst []cascade.Decision) []cascade.Decision {
	s.outMu.Lock()
	dst = append(dst, s.out...)
	s.out = s.out[:0]
	s.outMu.Unlock()
	return dst
}

// TakeTrigger returns and clears the latched trigger decision.
func (s *Session) TakeTrigger() (cascade.Decision, bool) {
	s.outMu.Lock()
	d, ok := s.trig, s.trigSet
	s.trig, s.trigSet = cascade.Decision{}, false
	s.outMu.Unlock()
	return d, ok
}

// Quiesce blocks until the session is idle: ingress drained and the
// worker between entries (or exited). It does not stop the session.
func (s *Session) Quiesce() {
	s.mu.Lock()
	for !s.done && (s.q.n > 0 || s.busy) {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close stops the session after draining its backlog and waits for
// the worker to exit. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	s.closing = true
	s.idle.Broadcast()
	s.mu.Unlock()
	<-s.exit
}
