package falldet

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cascade"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// wearSample is one step of a synthetic wear stream: a reading, or a
// gap of that many missing samples.
type wearSample struct {
	acc, gyro imu.Vec3
	gap       int
}

// wearStream is a deterministic wear stream that reaches every tier:
// swaying motion with a fall-like burst (primary), a dead-gyro
// stretch (fallback), and a sensor gap long enough to force a
// re-prime.
func wearStream(seed int64, n int) []wearSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]wearSample, 0, n)
	for i := 0; i < n; i++ {
		ph := float64(i) * (0.05 + 0.05*rng.Float64())
		s := wearSample{
			acc:  imu.Vec3{X: 0.2 * math.Sin(ph), Y: 0.05 * rng.NormFloat64(), Z: 1 + 0.1*math.Cos(ph)},
			gyro: imu.Vec3{X: 20 * math.Cos(ph), Y: 5 * rng.NormFloat64(), Z: 3 * math.Sin(2*ph)},
		}
		switch {
		case i%400 >= 150 && i%400 < 170: // fall-like burst
			s.acc = imu.Vec3{X: 2.5 * rng.NormFloat64(), Y: 2 * rng.NormFloat64(), Z: 0.3}
			s.gyro = imu.Vec3{X: 250 * rng.NormFloat64(), Y: 200 * rng.NormFloat64(), Z: 150}
		case i%400 >= 240 && i%400 < 330: // dead gyro
			s.gyro = imu.Vec3{X: math.NaN()}
		case i%400 == 360:
			s = wearSample{gap: 12}
		}
		out = append(out, s)
	}
	return out
}

// decide drives one cascade through in and returns every decision.
func decide[S tensor.Scalar](c *cascade.CascadeOf[S], in []wearSample) []CascadeDecision {
	out := make([]CascadeDecision, 0, len(in))
	for _, s := range in {
		if s.gap > 0 {
			out = append(out, c.PushMissing(s.gap))
		} else {
			out = append(out, c.Push(s.acc, s.gyro))
		}
	}
	return out
}

// sameDecisions compares two decision streams, probabilities by bits.
func sameDecisions(t *testing.T, tag string, got, want []CascadeDecision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decisions, want %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		gb, wb := math.Float64bits(g.Probability), math.Float64bits(w.Probability)
		g.Probability, w.Probability = 0, 0
		if g != w || gb != wb {
			t.Fatalf("%s: sample %d: decision %+v (p bits %x), want %+v (p bits %x)", tag, i, got[i], gb, want[i], wb)
		}
	}
}

// loweredBytes is the size of both tiers' weights at float32 — what a
// pipeline that lowered its own copy of the checkpoint would allocate
// on top of its rings.
func loweredBytes(t *testing.T, cd *CascadeDetector) uint64 {
	t.Helper()
	var n uint64
	for _, det := range []*Detector{cd.primary, cd.fallback} {
		nm, ok := det.model.(*model.NetModel)
		if !ok {
			t.Fatalf("%v is not a network model", det.kind)
		}
		n += 4 * uint64(nm.Net.ParamCount())
	}
	return n
}

// transposedHeadBytes is the size of both tiers' wide head Dense
// weights (In ≥ 32) at float64 — the copy the compiled program
// transposes for the head kernels, which a pipeline that compiled its
// own program would allocate on top of its rings.
func transposedHeadBytes(t *testing.T, cd *CascadeDetector) uint64 {
	t.Helper()
	var n uint64
	for _, det := range []*Detector{cd.primary, cd.fallback} {
		nm, ok := det.model.(*model.NetModel)
		if !ok {
			t.Fatalf("%v is not a network model", det.kind)
		}
		for _, l := range nm.Net.Layers {
			if d, ok := l.(*nn.Dense); ok && d.In >= 32 {
				n += 8 * uint64(d.In*d.Out)
			}
		}
	}
	return n
}

// TestCascadeStreamsShareCompiledWeights: every StreamF32 pipeline of
// one CascadeDetector reads the weights lowered by the first, so a
// second pipeline costs only its rings — and the sharing changes no
// decision: two pipelines of one detector, driven interleaved, match a
// pipeline of a freshly loaded copy bit for bit.
func TestCascadeStreamsShareCompiledWeights(t *testing.T) {
	cd := rawCascade(t, Config{Seed: 4}) // the paper's 400 ms geometry
	checkStreamsShare(t, cd, (*CascadeDetector).StreamF32, loweredBytes(t, cd), "the lowered weights of both tiers")
}

// TestCascadeStreamsShareTransposedHead: the float64 Stream pipelines
// of one CascadeDetector share the first one's program too, whose head
// weights are a transposed copy rather than the layers' own tensors:
// a second pipeline allocates less than that copy, and decides exactly
// as a pipeline of a freshly loaded copy.
func TestCascadeStreamsShareTransposedHead(t *testing.T) {
	cd := rawCascade(t, Config{Seed: 4})
	checkStreamsShare(t, cd, (*CascadeDetector).Stream, transposedHeadBytes(t, cd), "the transposed head of both tiers")
}

// checkStreamsShare opens two pipelines of cd with open, requires the
// second to allocate less than bound — the weights a pipeline that
// compiled its own program would copy before its first ring — and
// drives both interleaved against a pipeline of a freshly loaded copy
// of cd, bit for bit.
func checkStreamsShare[S tensor.Scalar](t *testing.T, cd *CascadeDetector, open func(*CascadeDetector) (*cascade.CascadeOf[S], error), bound uint64, what string) {
	t.Helper()
	var img bytes.Buffer
	if err := cd.Save(&img); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadCascade(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	first, err := open(cd)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	second, err := open(cd)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= bound {
		t.Fatalf("second pipeline allocated %d B, want < %d B (%s)", got, bound, what)
	} else {
		t.Logf("second pipeline allocated %d B; bound (%s) %d B", got, what, bound)
	}

	in := wearStream(11, 1200)
	want := decide(ref, in)
	tiers := map[Tier]bool{}
	for _, d := range want {
		if d.Evaluated {
			tiers[d.Tier] = true
		}
	}
	if !tiers[TierPrimary] || !tiers[TierFallback] {
		t.Fatalf("reference stream decided at tiers %v, want both CNN tiers exercised", tiers)
	}
	a := make([]CascadeDecision, 0, len(in))
	b := make([]CascadeDecision, 0, len(in))
	for i := range in {
		// Interleaved: each pipeline's scoring runs between the
		// other's, over the same program.
		a = append(a, decide(first, in[i:i+1])...)
		b = append(b, decide(second, in[i:i+1])...)
	}
	sameDecisions(t, "first pipeline", a, want)
	sameDecisions(t, "second pipeline", b, want)
}

// TestCascadeStreamsConcurrent: goroutines each build and drive their
// own float32 cascade from one shared CascadeDetector — racing on its
// first compilation too — and every stream must match its
// single-threaded reference from a separately loaded copy. Run under
// -race (scripts/verify.sh does).
func TestCascadeStreamsConcurrent(t *testing.T) {
	const workers = 8
	cd := rawCascade(t, Config{Seed: 5})
	var img bytes.Buffer
	if err := cd.Save(&img); err != nil {
		t.Fatal(err)
	}
	shared, err := LoadCascade(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]wearSample, workers)
	want := make([][]CascadeDecision, workers)
	for w := range inputs {
		inputs[w] = wearStream(int64(100+w), 900)
		ref, err := cd.StreamF32()
		if err != nil {
			t.Fatal(err)
		}
		want[w] = decide(ref, inputs[w])
	}
	got := make([][]CascadeDecision, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := shared.StreamF32()
			if err != nil {
				errs[w] = err
				return
			}
			got[w] = decide(c, inputs[w])
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		sameDecisions(t, "worker", got[w], want[w])
	}
}
