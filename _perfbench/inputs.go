package main

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/imu"
	"repro/internal/serve"
	"repro/internal/synth"
)

// workload is one input set the benchmark serves.
type workload struct {
	name     string
	f32      bool // serve through StreamF32 instead of Stream
	sessions int
	cfg      serve.Config
	// faults passes each stream through one fault injector and arms
	// one-shot pipeline panics every few hundred samples.
	faults bool
}

var workloads = []workload{
	{name: "ward_f64", sessions: 64, cfg: serve.Config{QueueLen: 64, SnapshotEvery: 256}},
	{name: "ward_f32", f32: true, sessions: 64, cfg: serve.Config{QueueLen: 64, SnapshotEvery: 256}},
	{name: "chaos_f32", f32: true, sessions: 128, faults: true,
		cfg: serve.Config{QueueLen: 64, SnapshotEvery: 64}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// sampleRate is the IMU rate the cascade is trained for.
	sampleRate = 100
	// strideSamples is the cascade's decision stride (400 ms windows at
	// 50 % overlap): one round of the generator delivers one stride of
	// source samples to every session, like one BLE packet per wearer.
	strideSamples = 20
	// streamSamples is the length of each session's source recording;
	// a session that outlives it loops it.
	streamSamples = 30 * sampleRate
	// fallsPerHour compresses falls into the short recordings so most
	// sessions contain one.
	fallsPerHour = 120
	// faultSeverity is the chaos workload's injector severity (0.5 of
	// the way from a field fault to a broken sensor).
	faultSeverity = 0.5
	// panicGapMin and panicGapSpan place one-shot pipeline panics every
	// panicGapMin + [0, panicGapSpan) raw samples.
	panicGapMin  = 250
	panicGapSpan = 500
)

// op is one pipeline operation the generator sends: a sample, or one
// missing sample (a sensor drop).
type op struct {
	acc, gyro imu.Vec3
	missing   bool
}

// stream is one session's input: its source recording as pipeline
// operations, grouped by source stride. The stream loops, so round r
// sends the operations of stride r mod the stride count.
type stream struct {
	ops    []op
	stride []int32 // ops[stride[k]:stride[k+1]] come from source stride k
	clean  []imu.Sample
}

// round returns the operations of generator round r.
func (s *stream) round(r int) []op {
	k := r % (len(s.stride) - 1)
	return s.ops[s.stride[k]:s.stride[k+1]]
}

// makeStreams generates one distinct continuous-wear recording per
// session from the seed. With faults, session i's recording passes
// through one injector of kind i mod 9 at faultSeverity; drops become
// missing samples and repeats are sent twice, as the cascade's own
// SimulateFaulty replays a fault.
func makeStreams(w workload, seed int64) ([]stream, error) {
	kinds := fault.Kinds()
	out := make([]stream, w.sessions)
	for i := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		subj := synth.NewSubject(i, rng)
		sess, err := synth.GenerateSession(subj, synth.SessionConfig{
			Minutes:  float64(streamSamples) / sampleRate / 60,
			FallRate: fallsPerHour,
		}, rng)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		if len(sess.Trial.Samples) < streamSamples {
			return nil, fmt.Errorf("session %d: %d samples, want %d", i, len(sess.Trial.Samples), streamSamples)
		}
		src := sess.Trial.Samples[:streamSamples]
		var inj fault.Injector
		if w.faults {
			inj = fault.New(kinds[i%len(kinds)], faultSeverity, seed*7_919+int64(i))
		}
		out[i] = toStream(src, inj)
	}
	return out, nil
}

// toStream converts a recording to pipeline operations through inj
// (nil for a healthy sensor).
func toStream(src []imu.Sample, inj fault.Injector) stream {
	s := stream{clean: src, stride: []int32{0}}
	for j, smp := range src {
		if inj == nil {
			s.ops = append(s.ops, op{acc: smp.Acc, gyro: smp.Gyro})
		} else {
			cs, eff := inj.Apply(smp)
			switch eff {
			case fault.Drop:
				s.ops = append(s.ops, op{missing: true})
			case fault.Repeat:
				s.ops = append(s.ops, op{acc: cs.Acc, gyro: cs.Gyro}, op{acc: cs.Acc, gyro: cs.Gyro})
			default:
				s.ops = append(s.ops, op{acc: cs.Acc, gyro: cs.Gyro})
			}
		}
		if (j+1)%strideSamples == 0 {
			s.stride = append(s.stride, int32(len(s.ops)))
		}
	}
	return s
}

// panicPlan arms one-shot panics for one session: the hook panics on
// the first entry at or past next, then moves next on, so the panic
// does not fire again when the session replays the same positions
// after its restore. The positions follow from the seed alone.
type panicPlan struct {
	next uint64
	rng  *rand.Rand
}

func newPanicPlan(seed int64, session int) *panicPlan {
	p := &panicPlan{rng: rand.New(rand.NewSource(seed*104_729 + int64(session)))}
	p.next = p.gap()
	return p
}

func (p *panicPlan) gap() uint64 {
	return uint64(panicGapMin + p.rng.Intn(panicGapSpan))
}

// hook is the serve.Config.PushHook body for this session.
func (p *panicPlan) hook(pos uint64) {
	if pos < p.next {
		return
	}
	p.next = pos + p.gap()
	panic(fmt.Sprintf("injected pipeline panic at sample %d", pos))
}

// panicHook routes serve's PushHook to each session's plan; the hook
// runs on the session's own worker, so each plan has one goroutine.
func panicHook(plans []*panicPlan) func(session int, pos uint64) {
	return func(session int, pos uint64) { plans[session].hook(pos) }
}
