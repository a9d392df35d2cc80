package nn

import (
	"math"

	"repro/internal/nn/simd"
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

// headCopy returns the weights of a head Dense layer for the head lane
// kernels: the row-major [rows × cols] matrix src transposed to one
// row of rows values per input column, rounded at S=float32. At
// float64 row i holds column i; at float32 the rows follow
// simd.HeadRowF32's class-grouped order.
func headCopy[S tensor.Scalar](src []float64, rows, cols int) []S {
	out := make([]S, len(src))
	for c := 0; c < cols; c++ {
		row := out[headRow[S](c, cols)*rows:][:rows]
		for o := range row {
			row[o] = S(src[o*cols+c])
		}
	}
	return out
}

// headMatches reports whether wT equals headCopy(src, rows, cols) bit
// for bit.
func headMatches[S tensor.Scalar](wT []S, src []float64, rows, cols int) bool {
	for c := 0; c < cols; c++ {
		row := wT[headRow[S](c, cols)*rows:][:rows]
		for o, v := range row {
			if math.Float64bits(float64(v)) != math.Float64bits(float64(S(src[o*cols+c]))) {
				return false
			}
		}
	}
	return true
}

// headRow returns the row of headCopy's layout that holds input column
// c of a cols-wide layer at width S.
func headRow[S tensor.Scalar](c, cols int) int {
	if tensor.Is64[S]() {
		return c
	}
	return simd.HeadRowF32(c, cols)
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
