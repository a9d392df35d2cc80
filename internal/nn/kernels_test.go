package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// naiveMatVecBias is the unblocked reference loop: one running
// accumulator per output, inputs in ascending order. The blocked
// kernel groups products pairwise, so it matches this only within
// rounding — the bit-level contract it must honour is lane uniformity
// (TestMatVecBiasLaneUniform), not agreement with any one serial order.
func naiveMatVecBias(dst, x, w, b []float64, rows, cols int) {
	for o := 0; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s := b[o]
		for i, v := range x[:cols] {
			s += row[i] * v
		}
		dst[o] = s
	}
}

func randKernelCase(rng *rand.Rand, rows, cols int) (w, x, b []float64) {
	w = make([]float64, rows*cols)
	x = make([]float64, cols)
	b = make([]float64, rows)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64() * 100
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return w, x, b
}

// checkLaneUniform runs matVecBias at width S, over w, x and b rounded
// to S, and fails unless every output of the full rows×cols call
// equals the single-row (rows=1) call on the same data exactly.
func checkLaneUniform[S tensor.Scalar](t *testing.T, w64, x64, b64 []float64, rows, cols int) {
	t.Helper()
	w, x, b := lowerCopy[S](w64), lowerCopy[S](x64), lowerCopy[S](b64)
	got := make([]S, rows)
	matVecBias(got, x, w, b, rows, cols)
	single := make([]S, 1)
	for o := 0; o < rows; o++ {
		matVecBias(single, x, w[o*cols:(o+1)*cols], b[o:o+1], 1, cols)
		if bitsOf(got[o]) != bitsOf(single[0]) {
			t.Fatalf("%T rows=%d cols=%d out %d: blocked %#x, single-row %#x",
				got[o], rows, cols, o, bitsOf(got[o]), bitsOf(single[0]))
		}
	}
}

// checkNaive32 bounds matVecBias at float32, over w, x and b rounded to
// float32, against a float64 serial sum of the same rounded values:
// the f32 sum may differ only by rounding noise scaled to the
// magnitude sum.
func checkNaive32(t *testing.T, w64, x64, b64 []float64, rows, cols int) {
	t.Helper()
	w, x, b := lowerCopy[float32](w64), lowerCopy[float32](x64), lowerCopy[float32](b64)
	got := make([]float32, rows)
	matVecBias(got, x, w, b, rows, cols)
	for o := 0; o < rows; o++ {
		naive := float64(b[o])
		mag := math.Abs(naive)
		for i := 0; i < cols; i++ {
			p := float64(w[o*cols+i]) * float64(x[i])
			naive += p
			mag += math.Abs(p)
		}
		if tol := 1e-6 * (mag + 1); math.Abs(float64(got[o])-naive) > tol {
			t.Fatalf("f32 rows=%d cols=%d out %d: %v vs f64 naive %v (tol %g)",
				rows, cols, o, got[o], naive, tol)
		}
	}
}

// TestMatVecBiasLaneUniform asserts the property the incremental
// streaming path depends on: every output is a fixed function of its
// own weight row, the input and its bias — bit-for-bit independent of
// rows, of which lane of the 4-wide block computed it, and of whether
// it fell in the remainder loop. Each output of a full rows×cols call
// must equal the single-row (rows=1) call on the same data exactly; a
// batch conv pass and a lone streamed conv row then agree by
// construction. TestMatVecBiasF32LaneUniform holds float32 to the same.
func TestMatVecBiasLaneUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 64} {
		for _, cols := range []int{1, 2, 5, 15, 31, 32, 45, 360, 864} {
			w, x, b := randKernelCase(rng, rows, cols)
			checkLaneUniform[float64](t, w, x, b, rows, cols)
		}
	}
}

// f32Shapes covers this topology's real layer shapes at float32 — conv
// rows (16×15), dense1 (64×864), dense2 (32×64), head (1×32) — plus odd
// cols around the narrow/wide threshold and the 4/16-block remainders.
var f32Shapes = []struct{ rows, cols int }{
	{16, 15}, {64, 864}, {32, 64}, {1, 32}, {1, 31},
	{5, 1}, {3, 3}, {4, 4}, {7, 7}, {8, 13}, {16, 18},
	{9, 33}, {6, 47}, {10, 100}, {2, 35}, {11, 63},
}

// TestMatVecBiasF32LaneUniform is TestMatVecBiasLaneUniform at float32,
// the width the served models run at.
func TestMatVecBiasF32LaneUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, sh := range f32Shapes {
		w, x, b := randKernelCase(rng, sh.rows, sh.cols)
		checkLaneUniform[float32](t, w, x, b, sh.rows, sh.cols)
	}
}

// TestMatVecBiasMatchesNaive bounds the blocked kernel against the
// serial reference within floating-point reassociation error, catching
// indexing or accumulation bugs that lane uniformity alone would not
// (a kernel that mixed up weight rows consistently could still be
// lane-uniform). TestMatVecBiasF32MatchesNaive bounds float32.
func TestMatVecBiasMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, rows := range []int{1, 3, 4, 7, 16, 64} {
		for _, cols := range []int{1, 5, 15, 32, 45, 360, 864} {
			w, x, b := randKernelCase(rng, rows, cols)
			got := make([]float64, rows)
			want := make([]float64, rows)
			matVecBias(got, x, w, b, rows, cols)
			naiveMatVecBias(want, x, w, b, rows, cols)
			for o := range got {
				diff := math.Abs(got[o] - want[o])
				scale := math.Abs(want[o]) + 1
				if diff/scale > 1e-12*float64(cols+1) {
					t.Fatalf("rows=%d cols=%d out %d: blocked %g, scalar %g (diff %g)",
						rows, cols, o, got[o], want[o], diff)
				}
			}
		}
	}
}

// TestMatVecBiasF32MatchesNaive bounds matVecBias at float32 against a
// float64 serial sum within checkNaive32's magnitude-scaled tolerance.
func TestMatVecBiasF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, sh := range f32Shapes {
		w, x, b := randKernelCase(rng, sh.rows, sh.cols)
		checkNaive32(t, w, x, b, sh.rows, sh.cols)
	}
}

// sparsify zeroes out roughly the given fraction of x, mimicking a
// ReLU-fed activation vector — the input shape that routes wide calls
// onto the sparse accumulation path.
func sparsify(rng *rand.Rand, x []float64, frac float64) {
	for i := range x {
		if rng.Float64() < frac {
			x[i] = 0
		}
	}
}

// TestMatVecBiasSparseLaneUniform repeats the lane-uniformity check on
// zero-heavy inputs: the sparse path must also make every output a
// fixed function of its own row, input and bias, bit-for-bit equal to
// the rows=1 call (which takes the same path — selection is a pure
// function of x, not of rows), at either width.
func TestMatVecBiasSparseLaneUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, frac := range []float64{0.2, 0.5, 0.9, 1.0} {
		for _, rows := range []int{1, 3, 7, 8, 9, 16, 64} {
			for _, cols := range []int{32, 45, 64, 360, 864} {
				w, x, b := randKernelCase(rng, rows, cols)
				sparsify(rng, x, frac)
				checkLaneUniform[float64](t, w, x, b, rows, cols)
				checkLaneUniform[float32](t, w, x, b, rows, cols)
			}
		}
	}
}

// TestMatVecBiasSparseMatchesNaive bounds the sparse path against the
// serial reference: skipping exact zeros must change nothing beyond
// reassociation rounding.
func TestMatVecBiasSparseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, frac := range []float64{0.3, 0.8} {
		for _, rows := range []int{1, 8, 64} {
			for _, cols := range []int{32, 360, 864} {
				w, x, b := randKernelCase(rng, rows, cols)
				sparsify(rng, x, frac)
				got := make([]float64, rows)
				want := make([]float64, rows)
				matVecBias(got, x, w, b, rows, cols)
				naiveMatVecBias(want, x, w, b, rows, cols)
				for o := range got {
					diff := math.Abs(got[o] - want[o])
					scale := math.Abs(want[o]) + 1
					if diff/scale > 1e-12*float64(cols+1) {
						t.Fatalf("frac=%g rows=%d cols=%d out %d: sparse %g, scalar %g",
							frac, rows, cols, o, got[o], want[o])
					}
				}
				checkNaive32(t, w, x, b, rows, cols)
			}
		}
	}
}

// TestMatVecBiasDeterministic: repeated calls on identical inputs give
// identical bits (no state, no data-dependent path selection).
func TestMatVecBiasDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	w, x, b := randKernelCase(rng, 16, 45)
	a1 := make([]float64, 16)
	a2 := make([]float64, 16)
	matVecBias(a1, x, w, b, 16, 45)
	matVecBias(a2, x, w, b, 16, 45)
	for o := range a1 {
		if math.Float64bits(a1[o]) != math.Float64bits(a2[o]) {
			t.Fatalf("out %d: %x then %x", o, math.Float64bits(a1[o]), math.Float64bits(a2[o]))
		}
	}
}
