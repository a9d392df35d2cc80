package falldet

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/imu"
	"repro/internal/tensor"
)

// rawDetector builds an untrained detector of the given kind — random
// weights score deterministically, which is all the wiring tests need.
func rawDetector(t *testing.T, kind Kind, cfg Config) *Detector {
	t.Helper()
	cfg = cfg.withDefaults()
	win := cfg.WindowMS * dataset.SampleRate / 1000
	m, err := buildModel(kind, win, 0, 0, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &Detector{cfg: cfg, kind: kind, model: m}
}

func rawCascade(t *testing.T, cfg Config) *CascadeDetector {
	t.Helper()
	cd, err := NewCascadeDetector(rawDetector(t, KindCNN, cfg), rawDetector(t, KindCNNAccel, cfg))
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

func TestNewCascadeDetectorValidation(t *testing.T) {
	cfg := tinyConfig()
	primary := rawDetector(t, KindCNN, cfg)
	fallback := rawDetector(t, KindCNNAccel, cfg)
	if _, err := NewCascadeDetector(nil, fallback); err == nil {
		t.Fatal("nil primary accepted")
	}
	if _, err := NewCascadeDetector(primary, nil); err == nil {
		t.Fatal("nil fallback accepted")
	}
	// A gyro-reading model is not a valid tier 1: it would go blind
	// with the exact fault the tier exists to survive.
	if _, err := NewCascadeDetector(primary, rawDetector(t, KindCNN, cfg)); err == nil {
		t.Fatal("full-input fallback accepted")
	}
	wide := cfg
	wide.WindowMS = 400
	if _, err := NewCascadeDetector(primary, rawDetector(t, KindCNNAccel, wide)); err == nil {
		t.Fatal("window mismatch accepted")
	}
}

func TestCascadeStreamDecidesThroughGyroDeath(t *testing.T) {
	cd := rawCascade(t, tinyConfig())
	c, err := cd.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if c.MinTier() != TierPrimary {
		t.Fatalf("tiny CNN over budget: MinTier %v", c.MinTier())
	}
	for i := 0; i < 3*c.Window(); i++ {
		ph := float64(i) * 0.1
		c.Push(imu.Vec3{X: 0.05 * math.Sin(ph), Z: 1}, imu.Vec3{Y: 5 * math.Cos(ph)})
	}
	if c.SupervisorTier() != TierPrimary {
		t.Fatalf("healthy stream at tier %v", c.SupervisorTier())
	}
	nan := math.NaN()
	sawFallback := false
	for i := 0; i < 3*c.Window(); i++ {
		d := c.Push(imu.Vec3{Z: 1 + 0.01*math.Sin(float64(i))}, imu.Vec3{X: nan})
		if d.Evaluated && d.Tier == TierFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatal("fallback never decided under a dead gyro")
	}
}

func TestCascadeSaveLoadRoundTrip(t *testing.T) {
	cd := rawCascade(t, tinyConfig())
	var buf bytes.Buffer
	if err := cd.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	loaded, err := LoadCascade(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Primary().Kind() != KindCNN || loaded.Fallback().Kind() != KindCNNAccel {
		t.Fatalf("kinds %v/%v", loaded.Primary().Kind(), loaded.Fallback().Kind())
	}
	// Both members score bit-identically after the round trip.
	rng := rand.New(rand.NewSource(3))
	win := tinyConfig().WindowMS * dataset.SampleRate / 1000
	for trial := 0; trial < 5; trial++ {
		x := tensor.New(win, imu.NumChannels)
		data := x.Data()
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		if got, want := loaded.Primary().Score(x), cd.Primary().Score(x); got != want {
			t.Fatalf("primary score %g != %g", got, want)
		}
		if got, want := loaded.Fallback().Score(x), cd.Fallback().Score(x); got != want {
			t.Fatalf("fallback score %g != %g", got, want)
		}
	}
	// The loaded cascade streams without re-supplied configuration.
	if _, err := loaded.Stream(); err != nil {
		t.Fatal(err)
	}
}

// TestCascadeLoadRejectsCorruption is the acceptance chaos test:
// truncation or a bit flip anywhere in the bundle — either member's
// weights included — must fail the load.
func TestCascadeLoadRejectsCorruption(t *testing.T) {
	cfg := tinyConfig()
	cfg.WindowMS = 100 // smallest geometry: keeps the image small enough to sweep
	cd := rawCascade(t, cfg)
	var buf bytes.Buffer
	if err := cd.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 1, 8, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		if _, err := LoadCascade(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded", n, len(raw))
		}
	}
	// Flip one bit at a spread of offsets covering the outer header,
	// the primary's weights and the fallback's weights.
	for off := 0; off < len(raw); off += 97 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		if _, err := LoadCascade(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d loaded", off)
		}
	}
}

// TestCascadeLoadRejectsMiswiredBundle: a bundle whose entries are
// swapped holds a full-input model under the "fallback" name — the
// pair re-validation must refuse it.
func TestCascadeLoadRejectsMiswiredBundle(t *testing.T) {
	cd := rawCascade(t, tinyConfig())
	var primary, fallback bytes.Buffer
	if err := cd.Primary().Save(&primary); err != nil {
		t.Fatal(err)
	}
	if err := cd.Fallback().Save(&fallback); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := writeSwappedBundle(&buf, primary.Bytes(), fallback.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCascade(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("swapped bundle loaded")
	}
}

func writeSwappedBundle(w io.Writer, primaryImg, fallbackImg []byte) error {
	return artifact.WriteBundle(w, map[string][]byte{
		bundlePrimaryEntry:  fallbackImg,
		bundleFallbackEntry: primaryImg,
	})
}

func TestCascadeRobustnessTierAccounting(t *testing.T) {
	d := tinyData(t)
	// Untrained members keep this a wiring test: one blinding fault,
	// one severity, two workers.
	cd := rawCascade(t, tinyConfig())
	rep, err := cd.EvaluateRobustness(d, RobustnessConfig{
		Kinds:      []FaultKind{FaultGyroNaN},
		Severities: []float64{0.5},
		Seed:       4,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("%d points", len(rep.Points))
	}
	p := rep.Points[0]
	if p.TierEvals[TierFallback]+p.TierEvals[TierThreshold] == 0 {
		t.Fatal("gyro death produced no degraded-tier decisions")
	}
	if p.BadScores != 0 {
		t.Fatalf("%d bad scores", p.BadScores)
	}
}

// TestLoadCascadeAllocationBound bounds what loading the deployable
// cascade (two full-size CNNs, about 0.7 MB) allocates: at most 12× the
// bundle's size. Reading each of the three nested envelopes (bundle,
// member, network) once into an exactly sized buffer, payload returned
// in place, costs about 3×; decoding the networks about 8× more.
func TestLoadCascadeAllocationBound(t *testing.T) {
	const maxRatio = 12
	cd := rawCascade(t, Config{})
	var buf bytes.Buffer
	if err := cd.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LoadCascade(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxRatio*len(img)); got > limit {
		t.Fatalf("LoadCascade of a %d-byte bundle allocated %d bytes (%.1f×), bound %d× = %d",
			len(img), got, float64(got)/float64(len(img)), maxRatio, limit)
	}
}
