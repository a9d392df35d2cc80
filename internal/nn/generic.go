package nn

import (
	"math"
	"unsafe"

	"repro/internal/tensor"
)

// Generic inference-side primitives shared by the compiled streaming
// head and the lowering path. Training stays float64-only — these
// helpers exist so the forward/inference arithmetic can run at either
// scalar width with one definition, and so the float64 instantiation
// is literally the same expression the layer objects evaluate
// (bit-identity by construction, not by tolerance).

// lowerCopy returns a fresh []S copy of src, rounded at S=float32.
func lowerCopy[S tensor.Scalar](src []float64) []S {
	out := make([]S, len(src))
	for i, v := range src {
		out[i] = S(v)
	}
	return out
}

// transposeCopy returns the [cols × rows] transpose of the row-major
// [rows × cols] matrix src as a fresh []S, rounded at S=float32.
func transposeCopy[S tensor.Scalar](src []float64, rows, cols int) []S {
	out := make([]S, len(src))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[c*rows+r] = S(src[r*cols+c])
		}
	}
	return out
}

// transposeMatches reports whether wT equals transposeCopy(src, rows,
// cols) bit for bit.
func transposeMatches[S tensor.Scalar](wT []S, src []float64, rows, cols int) bool {
	for c := 0; c < cols; c++ {
		for r, v := range wT[c*rows : (c+1)*rows] {
			if math.Float64bits(float64(v)) != math.Float64bits(float64(S(src[r*cols+c]))) {
				return false
			}
		}
	}
	return true
}

// reluInto writes max(v, 0) element-wise — ReLU.Forward's exact clamp
// (v ≤ 0 becomes 0, NaN propagates because the comparison is false).
//
//fallvet:hotpath
func reluInto[S tensor.Scalar](dst, x []S) {
	for i, v := range x {
		if v <= 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
}

// sigmoidInto writes the logistic function element-wise. The transfer
// runs through float64 at both widths, so the float64 instantiation is
// Sigmoid.Forward's exact expression and the float32 one differs only
// by the final rounding of an exactly-computed double.
//
//fallvet:hotpath
func sigmoidInto[S tensor.Scalar](dst, x []S) {
	for i, v := range x {
		dst[i] = S(1 / (1 + math.Exp(-float64(v))))
	}
}

// tanhInto writes the hyperbolic tangent element-wise; same width
// contract as sigmoidInto.
//
//fallvet:hotpath
func tanhInto[S tensor.Scalar](dst, x []S) {
	for i, v := range x {
		dst[i] = S(math.Tanh(float64(v)))
	}
}

// f64s reinterprets a scalar slice as []float64, for the simd kernel
// calls guarded by tensor.Is64[S] (branchStreamOf.convInto,
// headStepOf.denseInto).
func f64s[S tensor.Scalar](s []S) []float64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&s[0])), len(s))
}

// f32s reinterprets a scalar slice as []float32. Callers guard with
// !tensor.Is64[S], so S is float32 and this is the identity view; the
// float64 instantiation compiles but is unreachable. No allocation —
// unsafe.Slice builds a header over the existing backing array.
func f32s[S tensor.Scalar](s []S) []float32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&s[0])), len(s))
}
