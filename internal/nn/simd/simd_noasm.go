//go:build !amd64 || purego

package simd

// Portable kernels: the reference implementations are the
// implementation, so results are identical across platforms. The
// purego tag selects this file on amd64 too, so CI runs the portable
// kernels against the same tests as the assembly.

// ConvRowF32 computes one ReLU'd f32 conv row from filter-major
// weights, stored or folded into dst's running max (see ConvRowRef).
func ConvRowF32(dst, x, wT, b []float32, filters, cols int, fold bool) {
	ConvRowRef(dst, x, wT, b, filters, cols, fold)
}

// ConvRowF64 is ConvRowF32 at float64.
func ConvRowF64(dst, x, wT, b []float64, filters, cols int, fold bool) {
	ConvRowRef(dst, x, wT, b, filters, cols, fold)
}

// HeadF32 computes one f32 dense head layer from transposed weights
// (see HeadRef).
func HeadF32(dst, x, wT, b []float32, rows, cols int, relu bool) {
	HeadRef(dst, x, wT, b, rows, cols, relu)
}

// HeadF64 is HeadF32 at float64.
func HeadF64(dst, x, wT, b []float64, rows, cols int, relu bool) {
	HeadRef(dst, x, wT, b, rows, cols, relu)
}
