package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// The head kernels must reproduce, bit for bit, the per-output order
// of the row-major layer kernels they replace on the streaming head —
// matVecBiasWide, with its matVecBiasSparse mode — followed by the ReLU
// clamp when it is fused, at either width. Each case compares the
// dispatched kernel (assembly on amd64, the portable reference under
// purego or elsewhere), the generic portable reference and the
// row-major kernel by their bits, at float64 and float32, over
// transposed weights built the way compileHead builds them.

// headZeroCounts place the exact-zero inputs: none; one below, exactly
// at and one above the f64 kernels' 1/8 switch to the sparse order;
// about half and most of the inputs; all.
var headZeroCounts = []struct {
	name  string
	zeros func(cols int) int
}{
	{"none", func(int) int { return 0 }},
	{"below-switch", func(c int) int { return max(c/8-1, 0) }},
	{"at-switch", func(c int) int { return c / 8 }},
	{"above-switch", func(c int) int { return min(c/8+1, c) }},
	{"0.53", func(c int) int { return int(math.Round(0.53 * float64(c))) }},
	{"0.83", func(c int) int { return int(math.Round(0.83 * float64(c))) }},
	{"all", func(c int) int { return c }},
}

// headValues draw the nonzero inputs and the biases. Zeros are placed
// by headZeroCounts, as +0 or −0.
var headValues = []struct {
	name    string
	x, bias func(rng *rand.Rand) float64
}{
	{
		name: "finite",
		x:    func(rng *rand.Rand) float64 { return rng.NormFloat64() * 4 },
		bias: func(rng *rand.Rand) float64 { return rng.NormFloat64() },
	},
	{
		name: "signed-zero-bias",
		x:    func(rng *rand.Rand) float64 { return rng.NormFloat64() },
		bias: pickOr(0.8, 0, math.Copysign(0, -1)),
	},
	{
		name: "non-finite",
		x:    pickOr(0.1, hwNaN(), testInf, -testInf),
		bias: pickOr(0.1, hwNaN(), testInf, -testInf),
	},
}

// headCase is one random draw: row-major weights w [rows × cols], the
// input x with exactly zeros exact-zero entries, and biases b.
type headCase struct {
	w, x, b []float64
}

func drawHead(rng *rand.Rand, x, bias func(*rand.Rand) float64, rows, cols, zeros int) headCase {
	c := headCase{
		w: make([]float64, rows*cols),
		x: make([]float64, cols),
		b: make([]float64, rows),
	}
	for i := range c.w {
		c.w[i] = rng.NormFloat64()
	}
	for i := range c.x {
		c.x[i] = x(rng)
	}
	for _, i := range rng.Perm(cols)[:zeros] {
		c.x[i] = 0
		if rng.Intn(2) == 0 {
			c.x[i] = math.Copysign(0, -1)
		}
	}
	for o := range c.b {
		c.b[o] = bias(rng)
	}
	return c
}

func TestHeadKernels(t *testing.T) {
	for _, zc := range headZeroCounts {
		for _, hv := range headValues {
			t.Run(zc.name+"/"+hv.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(93))
				for _, rows := range []int{1, 3, 4, 5, 8, 9, 31, 32, 33, 64, 65, 100} {
					for _, cols := range []int{1, 15, 16, 17, 31, 32, 33, 35, 47, 48, 100, 288, 864, simd.MaxSparseCols + 1} {
						c := drawHead(rng, hv.x, hv.bias, rows, cols, zc.zeros(cols))
						for _, relu := range []bool{false, true} {
							checkHead(t, c, rows, cols, relu, simd.HeadF64)
							checkHead(t, c, rows, cols, relu, simd.HeadF32)
						}
					}
				}
			})
		}
	}
}

// clampWant applies the ReLU clamp to a row-major result.
func clampWant[S tensor.Scalar](row []S, relu bool) {
	for o, v := range row {
		if relu && v <= 0 {
			row[o] = 0
		}
	}
}

// unset fills the outputs before a kernel runs, so an output it never
// stores shows up as a mismatch.
func unset[S tensor.Scalar](rows int) []S {
	out := make([]S, rows)
	for o := range out {
		out[o] = 777
	}
	return out
}

// checkHead runs one case at width S, with every input rounded to S,
// through kern, simd.HeadRef and matVecBiasWide.
func checkHead[S tensor.Scalar](t *testing.T, c headCase, rows, cols int, relu bool, kern func(dst, x, wT, b []S, rows, cols int, relu bool)) {
	t.Helper()
	w, x, b := lowerCopy[S](c.w), lowerCopy[S](c.x), lowerCopy[S](c.b)
	wT := transposeCopy[S](c.w, rows, cols)
	got := convRowOut(t, unset[S](rows), func(dst []S) {
		kern(dst, x, wT, b, rows, cols, relu)
	})
	ref := convRowOut(t, unset[S](rows), func(dst []S) {
		simd.HeadRef(dst, x, wT, b, rows, cols, relu)
	})
	want := make([]S, rows)
	matVecBiasWide(want, x, w, b, rows, cols)
	clampWant(want, relu)
	for o := range want {
		g, r, w := bitsOf(got[o]), bitsOf(ref[o]), bitsOf(want[o])
		if g != w || r != w {
			t.Fatalf("%T rows=%d cols=%d relu=%v output %d: kernel %#x, ref %#x, row-major %#x",
				want[o], rows, cols, relu, o, g, r, w)
		}
	}
}

// BenchmarkHead times the paper CNN's first dense layer (864 inputs
// → 64 ReLU outputs) through the head kernels, with a quarter of the
// inputs exactly zero.
func BenchmarkHead(b *testing.B) {
	const rows, cols = 64, 864
	c := drawHead(rand.New(rand.NewSource(94)), headValues[0].x, headValues[0].bias, rows, cols, cols/4)
	b.Run("f64", func(b *testing.B) {
		wT, dst := transposeCopy[float64](c.w, rows, cols), make([]float64, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.HeadF64(dst, c.x, wT, c.b, rows, cols, true)
		}
	})
	b.Run("f32", func(b *testing.B) {
		wT, dst := transposeCopy[float32](c.w, rows, cols), make([]float32, rows)
		x, bias := lowerCopy[float32](c.x), lowerCopy[float32](c.b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.HeadF32(dst, x, wT, bias, rows, cols, true)
		}
	})
}
