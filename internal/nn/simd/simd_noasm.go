//go:build !amd64 || purego

package simd

// Portable kernels: the reference implementations are the
// implementation, so results are identical across platforms. The
// purego tag selects this file on amd64 too, so CI runs the portable
// kernels against the same tests as the assembly.

// MatVecBiasF32 computes dst[o] = b[o] + Σ_i w[o·cols+i]·x[i] in the
// package-documented f32 order.
func MatVecBiasF32(dst, x, w, b []float32, rows, cols int) {
	MatVecBiasF32Ref(dst, x, w, b, rows, cols)
}

// ConvRowF32 computes one ReLU'd f32 conv row from filter-major
// weights, stored or folded into dst's running max (see ConvRowF32Ref).
func ConvRowF32(dst, x, wT, b []float32, filters, cols int, fold bool) {
	ConvRowF32Ref(dst, x, wT, b, filters, cols, fold)
}

// ConvRowF64 is ConvRowF32 at float64 (see ConvRowF64Ref).
func ConvRowF64(dst, x, wT, b []float64, filters, cols int, fold bool) {
	ConvRowF64Ref(dst, x, wT, b, filters, cols, fold)
}

// HeadF64 computes one dense head layer from transposed weights (see
// HeadF64Ref).
func HeadF64(dst, x, wT, b []float64, rows, cols int, relu bool) {
	HeadF64Ref(dst, x, wT, b, rows, cols, relu)
}

// HeadF32 computes one dense head layer from class-grouped transposed
// weights (see HeadF32Ref).
func HeadF32(dst, x, wT, b []float32, rows, cols int, relu bool) {
	HeadF32Ref(dst, x, wT, b, rows, cols, relu)
}
