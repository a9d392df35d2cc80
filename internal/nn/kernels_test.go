package nn

import (
	"math"
	"math/rand"
	"testing"
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

// TestMatVecBiasLaneUniform asserts the property the incremental
// streaming path depends on: every output is a fixed function of its
// own weight row, the input and its bias — bit-for-bit independent of
// rows, of which lane of the 4-wide block computed it, and of whether
// it fell in the remainder loop. Each output of a full rows×cols call
// must equal the single-row (rows=1) call on the same data exactly;
// a batch conv pass and a lone streamed conv row then agree by
// construction.
func TestMatVecBiasLaneUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 64} {
		for _, cols := range []int{1, 2, 5, 15, 31, 32, 45, 360, 864} {
			w, x, b := randKernelCase(rng, rows, cols)
			got := make([]float64, rows)
			matVecBias(got, x, w, b, rows, cols)
			single := make([]float64, 1)
			for o := 0; o < rows; o++ {
				matVecBias(single, x, w[o*cols:(o+1)*cols], b[o:o+1], 1, cols)
				if math.Float64bits(got[o]) != math.Float64bits(single[0]) {
					t.Fatalf("rows=%d cols=%d out %d: blocked %x, single-row %x",
						rows, cols, o, math.Float64bits(got[o]), math.Float64bits(single[0]))
				}
			}
		}
	}
}

// TestMatVecBiasMatchesNaive bounds the blocked kernel against the
// serial reference within floating-point reassociation error, catching
// indexing or accumulation bugs that lane uniformity alone would not
// (a kernel that mixed up weight rows consistently could still be
// lane-uniform).
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
// function of x, not of rows).
func TestMatVecBiasSparseLaneUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, frac := range []float64{0.2, 0.5, 0.9, 1.0} {
		for _, rows := range []int{1, 3, 7, 8, 9, 16, 64} {
			for _, cols := range []int{32, 45, 64, 360, 864} {
				w, x, b := randKernelCase(rng, rows, cols)
				sparsify(rng, x, frac)
				got := make([]float64, rows)
				matVecBias(got, x, w, b, rows, cols)
				single := make([]float64, 1)
				for o := 0; o < rows; o++ {
					matVecBias(single, x, w[o*cols:(o+1)*cols], b[o:o+1], 1, cols)
					if math.Float64bits(got[o]) != math.Float64bits(single[0]) {
						t.Fatalf("frac=%g rows=%d cols=%d out %d: blocked %x, single-row %x",
							frac, rows, cols, o, math.Float64bits(got[o]), math.Float64bits(single[0]))
					}
				}
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
