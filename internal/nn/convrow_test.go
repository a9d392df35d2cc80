package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// The conv row kernels must reproduce, bit for bit, the per-output
// order the row-major kernel defines at either width — matVecBias's
// narrow path plus the ReLU clamp — with MaxPool1D's strict-`>` running
// max on top in fold mode. Each case compares the dispatched kernel
// (assembly on amd64, the portable reference under purego or
// elsewhere), the generic portable reference and the row-major kernel
// by their bits, at float64 and float32.

// testInf is a variable so the NaN below is computed at run time.
var testInf = math.Inf(1)

// hwNaN returns the NaN the FPU itself generates (for Inf−Inf or
// 0·Inf). Every NaN the cases feed in is this one, so a result's NaN
// bits never depend on which operand an instruction propagates.
func hwNaN() float64 { return testInf - testInf }

// convRowRegimes draw the inputs x, the biases and the old running
// maxima a fold merges into.
var convRowRegimes = []struct {
	name         string
	x, bias, old func(rng *rand.Rand) float64
}{
	{
		name: "finite",
		x:    func(rng *rand.Rand) float64 { return rng.NormFloat64() * 4 },
		bias: func(rng *rand.Rand) float64 { return rng.NormFloat64() },
		old:  func(rng *rand.Rand) float64 { return rng.NormFloat64() },
	},
	{
		name: "signed-zero",
		x:    pickOr(0.5, 0, math.Copysign(0, -1)),
		bias: pickOr(0.5, 0, math.Copysign(0, -1)),
		old:  pickOr(0.7, 0, math.Copysign(0, -1)),
	},
	{
		name: "non-finite",
		x:    pickOr(0.1, hwNaN(), testInf, -testInf, 0, math.Copysign(0, -1)),
		bias: pickOr(0.1, hwNaN(), testInf, -testInf),
		old:  pickOr(0.5, hwNaN(), testInf, -testInf, 0, math.Copysign(0, -1)),
	},
}

// pickOr returns a generator that yields one of specials (uniformly)
// with probability p and a standard normal value otherwise.
func pickOr(p float64, specials ...float64) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 {
		if rng.Float64() < p {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
}

// convRowCase is one random draw: row-major weights w [filters ×
// cols], their filter-major transpose wT, input x, biases b and old
// maxima.
type convRowCase struct {
	w, wT, x, b, old []float64
}

func drawConvRow(rng *rand.Rand, gen func(*rand.Rand) float64, bias, old func(*rand.Rand) float64, filters, cols int) convRowCase {
	c := convRowCase{
		w:   make([]float64, filters*cols),
		x:   make([]float64, cols),
		b:   make([]float64, filters),
		old: make([]float64, filters),
	}
	for i := range c.w {
		c.w[i] = rng.NormFloat64()
	}
	for i := range c.x {
		c.x[i] = gen(rng)
	}
	for f := range c.b {
		c.b[f] = bias(rng)
		c.old[f] = old(rng)
	}
	c.wT = transposeCopy[float64](c.w, filters, cols)
	return c
}

// mergeWant applies the ReLU clamp and, in fold mode, the strict-`>`
// running max to an unclamped row-major result.
func mergeWant[S tensor.Scalar](row, old []S, fold bool) {
	for f, v := range row {
		if v <= 0 {
			v = 0
		}
		if fold && !(v > old[f]) {
			v = old[f]
		}
		row[f] = v
	}
}

// convRowOut runs kern on dst = copy(old) with eight sentinel slots
// past the filters, and fails if a store lands past dst[filters-1].
func convRowOut[S tensor.Scalar](t *testing.T, old []S, kern func(dst []S)) []S {
	t.Helper()
	n := len(old)
	buf := make([]S, n+8)
	copy(buf, old)
	for i := n; i < len(buf); i++ {
		buf[i] = 12345
	}
	kern(buf[:n])
	for i := n; i < len(buf); i++ {
		if buf[i] != 12345 {
			t.Fatalf("kernel wrote past its %d filters (slot %d = %v)", n, i, buf[i])
		}
	}
	return buf[:n]
}

// bitsOf returns v's IEEE bits at its own width.
func bitsOf[S tensor.Scalar](v S) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

func TestConvRowKernels(t *testing.T) {
	for _, rg := range convRowRegimes {
		t.Run(rg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(91))
			for _, filters := range []int{1, 3, 4, 6, 8, 12, 16, 24, 31, 40} {
				for cols := 1; cols < 32; cols++ {
					for _, fold := range []bool{false, true} {
						for trial := 0; trial < 3; trial++ {
							c := drawConvRow(rng, rg.x, rg.bias, rg.old, filters, cols)
							checkConvRow(t, c, filters, cols, fold, simd.ConvRowF64)
							checkConvRow(t, c, filters, cols, fold, simd.ConvRowF32)
						}
					}
				}
			}
		})
	}
}

// checkConvRow runs one case at width S, with every input rounded to
// S, through kern, simd.ConvRowRef and matVecBias.
func checkConvRow[S tensor.Scalar](t *testing.T, c convRowCase, filters, cols int, fold bool, kern func(dst, x, wT, b []S, filters, cols int, fold bool)) {
	t.Helper()
	w, wT, x, b, old := lowerCopy[S](c.w), lowerCopy[S](c.wT), lowerCopy[S](c.x), lowerCopy[S](c.b), lowerCopy[S](c.old)
	got := convRowOut(t, old, func(dst []S) {
		kern(dst, x, wT, b, filters, cols, fold)
	})
	ref := convRowOut(t, old, func(dst []S) {
		simd.ConvRowRef(dst, x, wT, b, filters, cols, fold)
	})
	want := make([]S, filters)
	matVecBias(want, x, w, b, filters, cols)
	mergeWant(want, old, fold)
	for f := range want {
		g, r, w := bitsOf(got[f]), bitsOf(ref[f]), bitsOf(want[f])
		if g != w || r != w {
			t.Fatalf("%T filters=%d cols=%d fold=%v filter %d: kernel %#x, ref %#x, row-major %#x",
				want[f], filters, cols, fold, f, g, r, w)
		}
	}
}

// BenchmarkConvRow times one conv row of the paper CNN's shape (16
// filters over a 5×3 window) through the simd kernels, folding
// into a running max as the streaming push does.
func BenchmarkConvRow(b *testing.B) {
	const filters, cols = 16, 15
	c := drawConvRow(rand.New(rand.NewSource(92)), convRowRegimes[0].x, convRowRegimes[0].bias, convRowRegimes[0].old, filters, cols)
	b.Run("f64", func(b *testing.B) {
		dst := append([]float64(nil), c.old...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.ConvRowF64(dst, c.x, c.wT, c.b, filters, cols, true)
		}
	})
	b.Run("f32", func(b *testing.B) {
		dst, x, wT, bias := lowerCopy[float32](c.old), lowerCopy[float32](c.x), lowerCopy[float32](c.wT), lowerCopy[float32](c.b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.ConvRowF32(dst, x, wT, bias, filters, cols, true)
		}
	})
}
