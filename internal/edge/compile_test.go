package edge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/imu"
	"repro/internal/model"
)

// TestCompiledDetectorsShareProgram: detectors built around one
// CompiledOf stream from its program rather than compiling their own,
// score exactly as a detector around the bare model does, and a
// classifier compiled for another geometry is refused rather than
// quietly scored in batch form.
func TestCompiledDetectorsShareProgram(t *testing.T) {
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DetectorConfig{WindowMS: 400, Overlap: 0.5}
	c, err := CompileOf[float32](m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewDetectorOf[float32](c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDetectorOf[float32](c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewDetectorOf[float32](m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DetectorOf[float32]{a, b} {
		if len(d.streams) != 1 || d.streams[0].st.ProgramOf != c.prog {
			t.Fatal("detector did not stream from the shared program")
		}
	}
	if bare.streams[0].st.ProgramOf == c.prog {
		t.Fatal("a bare model borrowed another detector's program")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		acc := imu.Vec3{X: 0.3 * rng.NormFloat64(), Y: 0.3 * rng.NormFloat64(), Z: 1}
		gyro := imu.Vec3{X: 40 * rng.NormFloat64(), Y: 40 * rng.NormFloat64(), Z: 10 * rng.NormFloat64()}
		want := bare.Push(acc, gyro)
		for _, d := range []*DetectorOf[float32]{a, b} {
			if got := d.Push(acc, gyro); got != want || math.Float64bits(got.Probability) != math.Float64bits(want.Probability) {
				t.Fatalf("sample %d: compiled %+v, bare %+v", i, got, want)
			}
		}
	}
	if _, err := NewDetectorOf[float32](c, DetectorConfig{WindowMS: 400, Overlap: 0.75}); err == nil {
		t.Fatal("classifier compiled for a 20-sample stride accepted by a 10-sample-stride detector")
	}
	if _, err := CompileOf[float32](m, DetectorConfig{WindowMS: 400, Overlap: 0.525}); err == nil {
		t.Fatal("compiled a program none of whose branches can stream (19-sample stride)")
	}
}
