package serve

import (
	"time"

	"repro/internal/imu"
)

// entry is one ingress ring slot: a record plus the deadline its
// decision is due by.
type entry struct {
	record
	deadline time.Time
}

// record is a single data sample or a run of missing samples, plus
// the shed debt accumulated in front of it: everything replay reads of
// an entry, and all the session's replay log keeps of it.
type record struct {
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	acc, gyro imu.Vec3
	// missing, when > 0, makes this a gap entry of that many raw
	// samples; acc/gyro are unused.
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	missing int
	// shedBefore is how many raw samples were shed from the ring
	// immediately before this entry. The worker converts the debt to
	// PushMissing(shedBefore) at drain, so the pipeline sees shed
	// load exactly as a sensor dropout of the same length.
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	shedBefore int
}

// raw is the number of raw stream samples this record advances the
// pipeline by, shed debt included.
func (e record) raw() int {
	if e.missing > 0 {
		return e.shedBefore + e.missing
	}
	return e.shedBefore + 1
}

// ring is the fixed-capacity ingress queue. Not self-locking: the
// session's mutex guards it.
type ring struct {
	buf  []entry
	head int // index of oldest entry
	n    int // occupied slots
}

func newRing(capacity int) ring {
	return ring{buf: make([]entry, capacity)}
}

// push appends e, shedding the oldest entry if the ring is full.
// The shed entry's raw samples fold into the next-oldest entry's
// shedBefore (or into e itself when the ring holds a single slot), so
// no stream position is ever silently lost — shed data degrades to
// missing data, never to skewed alignment. Returns the number of raw
// samples newly shed (0 when the ring had room); debt the shed entry
// was already carrying is folded forward but not counted again.
func (r *ring) push(e entry) int {
	shed := 0
	if r.n == len(r.buf) {
		old := r.buf[r.head]
		shed = old.raw() - old.shedBefore
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		if r.n > 0 {
			r.buf[r.head].shedBefore += old.raw()
		} else {
			e.shedBefore += old.raw()
		}
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
	return shed
}

// pop removes and returns the oldest entry; the caller must check
// r.n > 0 first.
func (r *ring) pop() entry {
	e := r.buf[r.head]
	r.buf[r.head] = entry{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}
