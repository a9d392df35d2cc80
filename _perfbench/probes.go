package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/falldet"
	"repro/internal/artifact"
	"repro/internal/cascade"
	"repro/internal/dsp"
	"repro/internal/edge"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const (
	// probeStrides is how many strides of every session's stream the
	// direct probes replay.
	probeStrides = 50
	// probeReps repeats the small artifact and falldet probes.
	probeReps = 200
	buildReps = 16
	loadReps  = 5
)

// span accumulates busy time over a count of work units.
type span struct{ ns, n int64 }

func (s *span) add(ns int64, n int) { s.ns += ns; s.n += int64(n) }

func (s span) per() float64 { return ratio(float64(s.ns), float64(s.n)) }

// probes are the direct single-threaded measurements of one layer at
// a time over the workload's own inputs: every session's stream,
// stride by stride in the generator's round-robin order, each session
// with its own layer state, so the probes see the same working set the
// served fleet does. Per-call spans (the cascade pushes, the scores)
// include one clock read, which clockNs measures and the report
// subtracts; per-stride spans are batches of calls.
type probes struct {
	clockNs    float64
	ingestPush span
	decide     [cascade.NumTiers]span
	edgeIngest span
	filter     span
	fusion     span
	nnPush     [2]span // primary, fallback
	nnScore    [2]span
	batchScore span
	envelope   span
	read       span
	loadMs     []float64 // each LoadCascade, in ms
	build      span      // Stream or StreamF32 per session

	nets [2]*nn.Network // primary and fallback, decoded from the bundle
}

// net is a per-call span's mean with its clock read taken out, 0 for a
// span that timed nothing.
func (p probes) net(s span) float64 {
	if s.n == 0 {
		return 0
	}
	return s.per() - p.clockNs
}

// clockCost is the mean cost of one clock read, in ns.
func clockCost(c *roundClock) float64 {
	const n = 200_000
	t0 := c.now()
	for i := 0; i < n; i++ {
		c.now()
	}
	return float64(c.now()-t0) / n
}

// newProbes calibrates the clock and decodes the networks.
func newProbes(img []byte) (*probes, error) {
	nets, err := bundleNets(img)
	if err != nil {
		return nil, err
	}
	return &probes{clockNs: clockCost(newRoundClock()), nets: nets}, nil
}

// pass runs every probe once at the workload's width, adding to the
// accumulated spans.
func (p *probes) pass(w workload, img []byte, cd *falldet.CascadeDetector, streams []stream) error {
	if w.f32 {
		return passAt[float32](p, w, img, cd, streams)
	}
	return passAt[float64](p, w, img, cd, streams)
}

func passAt[S tensor.Scalar](p *probes, w workload, img []byte, cd *falldet.CascadeDetector, streams []stream) error {
	c := newRoundClock()
	strides := min(probeStrides, len(streams[0].stride)-1)

	// Cascade pushes: the natural tiers, then capped at each lower tier
	// so that tiers 1 and 2 are timed on every workload.
	// tiers[c][i][k] is the tier that decided session i's stride k under
	// ceiling c (noTier when none did); the nn probes score by it.
	var tiers [2][][]int8
	var last pipe
	for ceiling := cascade.TierPrimary; ceiling < cascade.NumTiers; ceiling++ {
		if int(ceiling) < len(tiers) {
			tiers[ceiling] = make([][]int8, len(streams))
			for i := range streams {
				tiers[ceiling][i] = make([]int8, strides)
			}
		}
		pipes := make([]pipe, len(streams))
		for i := range pipes {
			pp, err := newPipe(cd, w.f32)
			if err != nil {
				return err
			}
			pp.SetTierCeiling(ceiling)
			pipes[i] = pp
		}
		for k := 0; k < strides; k++ {
			for i, pp := range pipes {
				tier := int8(noTier)
				t := c.now()
				for _, o := range streams[i].round(k) {
					var d cascade.Decision
					if o.missing {
						d = pp.PushMissing(1)
					} else {
						d = pp.Push(o.acc, o.gyro)
					}
					t1 := c.now()
					switch {
					case o.missing:
					case d.Evaluated:
						p.decide[d.Tier].add(t1-t, 1)
					default:
						p.ingestPush.add(t1-t, 1)
					}
					if d.Evaluated {
						tier = int8(d.Tier)
					}
					t = t1
				}
				if int(ceiling) < len(tiers) {
					tiers[ceiling][i][k] = tier
				}
			}
		}
		last = pipes[0]
		runtime.GC()
	}

	// edge: the full ingest path with no streamer attached.
	dets := make([]*edge.DetectorOf[S], len(streams))
	for i := range dets {
		det, err := edge.NewDetectorOf[S](noScore{}, edge.DetectorConfig{WindowMS: windowMS, Overlap: overlap})
		if err != nil {
			return err
		}
		dets[i] = det
	}
	for k := 0; k < strides; k++ {
		for i, det := range dets {
			ops := streams[i].round(k)
			t0 := c.now()
			for _, o := range ops {
				if o.missing {
					det.IngestMissing(1)
				} else {
					det.Ingest(o.acc, o.gyro)
				}
			}
			p.edgeIngest.add(c.now()-t0, len(ops))
		}
	}

	// imu fusion, the nine Butterworth filters and the nn streamers,
	// chained over the clean recordings as the edge pipeline feeds them.
	for pass := rowScore; pass <= rowBatch; pass++ {
		rows := make([]*rowStages[S], len(streams))
		for i := range rows {
			var err error
			if rows[i], err = newRowStages[S](p.nets); err != nil {
				return err
			}
		}
		for k := 0; k < strides; k++ {
			for i, r := range rows {
				var tier int8 = noTier
				if pass < rowBatch {
					tier = tiers[pass][i][k]
				} else if tiers[0][i][k] != noTier {
					tier = int8(cascade.TierPrimary)
				}
				r.stride(p, c, streams[i].clean[k*strideSamples:(k+1)*strideSamples], pass, tier)
			}
		}
		runtime.GC()
	}

	// artifact: the snapshot envelope around a live snapshot's payload.
	env, err := last.AppendSnapshot(nil)
	if err != nil {
		return err
	}
	h, payload, err := artifact.Read(bytes.NewReader(env))
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(env))
	for r := 0; r < probeReps; r++ {
		t0 := c.now()
		buf, err = artifact.AppendEnvelopeDType(buf[:0], h.Kind, h.Shape, h.DType, payload)
		t1 := c.now()
		if err != nil {
			return err
		}
		_, _, err = artifact.Read(bytes.NewReader(buf))
		t2 := c.now()
		if err != nil {
			return err
		}
		p.envelope.add(t1-t0, 1)
		p.read.add(t2-t1, 1)
	}

	// falldet: bundle load and per-session construction.
	for r := 0; r < loadReps; r++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := falldet.LoadCascade(bytes.NewReader(img)); err != nil {
			return err
		}
		p.loadMs = append(p.loadMs, float64(time.Since(t0))/1e6)
	}
	runtime.GC()
	t0 := time.Now()
	for r := 0; r < buildReps; r++ {
		if _, err := newPipe(cd, w.f32); err != nil {
			return err
		}
	}
	p.build.add(int64(time.Since(t0)), buildReps)
	return nil
}

// The cascade's streaming geometry (400 ms windows, 50 % overlap).
const (
	windowMS   = 400
	overlap    = 0.5
	windowRows = windowMS * sampleRate / 1000
)

// noScore is a classifier with no network, so an edge detector built
// around it attaches no streamer; the probe only ingests.
type noScore struct{}

func (noScore) Name() string                   { return "none" }
func (noScore) Score(x *tensor.Tensor) float64 { return 0 }

// savedDetector mirrors the gob payload of a falldet detector envelope.
type savedDetector struct {
	Kind      int
	WindowMS  int
	Overlap   float64
	Threshold float64
	Net       []byte
}

// bundleNets decodes the primary and fallback networks from the
// bundle, for the nn probes that drive the streamers directly.
func bundleNets(img []byte) ([2]*nn.Network, error) {
	var nets [2]*nn.Network
	entries, err := artifact.ReadBundle(bytes.NewReader(img))
	if err != nil {
		return nets, err
	}
	for i, name := range []string{"primary", "fallback"} {
		raw, ok := entries[name]
		if !ok {
			return nets, fmt.Errorf("bundle has no %q entry", name)
		}
		_, payload, err := artifact.Read(bytes.NewReader(raw))
		if err != nil {
			return nets, err
		}
		var s savedDetector
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
			return nets, err
		}
		m, err := model.New(model.Kind(s.Kind), model.Config{WindowSamples: s.WindowMS * sampleRate / 1000}, rand.New(rand.NewSource(0)))
		if err != nil {
			return nets, err
		}
		if err := m.Net.Load(bytes.NewReader(s.Net)); err != nil {
			return nets, err
		}
		nets[i] = m.Net
	}
	return nets, nil
}

// rowStages is one session's fusion, filters and streamers, fed the
// clean recording the way the edge pipeline feeds its own.
type rowStages[S tensor.Scalar] struct {
	fusion  *imu.Fusion
	filters [imu.NumChannels]*dsp.FilterOf[S]
	st      [2]*nn.StreamerOf[S]
	raw     [strideSamples][imu.NumChannels]float64
	rows    []S
	count   int
}

func newRowStages[S tensor.Scalar](nets [2]*nn.Network) (*rowStages[S], error) {
	r := &rowStages[S]{
		fusion: imu.MustNewFusion(sampleRate, 0.5),
		rows:   make([]S, strideSamples*imu.NumChannels),
	}
	for ch := range r.filters {
		r.filters[ch] = dsp.WrapFilter[S](dsp.MustButterworth(4, 5, sampleRate))
	}
	for i, net := range nets {
		s, err := nn.NewStreamerOf[S](net, nn.StreamConfig{
			InCh: imu.NumChannels, Window: windowRows, Step: strideSamples,
			RebaseCols: []int{imu.EulerYaw},
		})
		if err != nil {
			return nil, err
		}
		r.st[i] = s
	}
	return r, nil
}

// The nn probe passes over every session's clean recording. Each
// scores at the strides and tiers the cascade probe decided at, so its
// working set follows the served fleet's: rowScore as the uncapped
// cascade did, rowFallback as the cascade capped at tier 1 did (so
// fallback scores are timed on every workload), and rowBatch rescoring
// the primary in batch form wherever the uncapped cascade decided.
const (
	rowScore = iota
	rowFallback
	rowBatch
	noTier = -1
)

// stride feeds one stride through the session's stages. The rowScore
// pass times fusion, the filters and the pushes; each pass times the
// scoring it is for.
func (r *rowStages[S]) stride(p *probes, c *roundClock, smp []imu.Sample, pass int, tier int8) {
	t0 := c.now()
	for j := range smp {
		e := r.fusion.Update(smp[j].Acc, smp[j].Gyro)
		r.raw[j] = [imu.NumChannels]float64{
			smp[j].Acc.X, smp[j].Acc.Y, smp[j].Acc.Z,
			smp[j].Gyro.X, smp[j].Gyro.Y, smp[j].Gyro.Z,
			e.X, e.Y, e.Z,
		}
	}
	t1 := c.now()
	if r.count == 0 {
		for ch, f := range r.filters {
			f.Prime(S(r.raw[0][ch]))
		}
	}
	for j := range smp {
		for ch, f := range r.filters {
			v := f.Process(S(r.raw[j][ch]))
			if s := imu.ChannelScale(ch); s != 1 {
				v /= S(s)
			}
			r.rows[j*imu.NumChannels+ch] = v
		}
	}
	t2 := c.now()
	for i, s := range r.st {
		t := c.now()
		for j := range smp {
			s.Push(r.rows[j*imu.NumChannels : (j+1)*imu.NumChannels])
		}
		if pass == rowScore {
			p.nnPush[i].add(c.now()-t, len(smp))
		}
	}
	if pass == rowScore {
		p.fusion.add(t1-t0, len(smp))
		p.filter.add(t2-t1, len(smp))
	}
	r.count += len(smp)
	if tier == noTier || int(tier) >= len(r.st) || !r.st[tier].Ready() {
		return
	}
	t := c.now()
	if pass == rowBatch {
		r.st[0].BatchScore()
		p.batchScore.add(c.now()-t, 1)
		return
	}
	r.st[tier].Score()
	p.nnScore[tier].add(c.now()-t, 1)
}
