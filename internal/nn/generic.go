package nn

import (
	"math"

	"repro/internal/tensor"
)

// Generic inference-side primitives shared by the compiled streaming
// head and the lowering path. Training stays float64-only — these
// helpers exist so the forward/inference arithmetic can run at either
// scalar width with one definition, and so the float64 instantiation
// is literally the same expression the layer objects evaluate
// (bit-identity by construction, not by tolerance).

// lowerOrAlias returns src as a []S: at S=float64 it returns src
// itself (so in-place parameter updates stay visible to the compiled
// path, exactly as when the kernels read the layer tensors directly),
// and at S=float32 it returns a rounded copy — a lowered snapshot of
// the checkpoint, taken once by CompileOf.
func lowerOrAlias[S tensor.Scalar](src []float64) []S {
	if s, ok := any(src).([]S); ok {
		return s
	}
	return lowerCopy[S](src)
}

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
