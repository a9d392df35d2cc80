//go:build !purego

package simd

// SSE/AVX implementations (kernels_amd64.s). Each follows the
// operation order defined by its Ref function exactly, so assembly and
// reference are bit-identical. SSE2 is part of the amd64 baseline, so
// MatVecBiasF32 needs no feature detection; the conv row kernels need
// AVX and tail-call their references without it. All are NOSPLIT
// assembly that allocates nothing.

// MatVecBiasF32 computes dst[o] = b[o] + Σ_i w[o·cols+i]·x[i] in the
// package-documented f32 order.
//
//go:noescape
func MatVecBiasF32(dst, x, w, b []float32, rows, cols int)

// ConvRowF32 computes one ReLU'd f32 conv row from filter-major
// weights, stored or folded into dst's running max (see ConvRowF32Ref).
// Without AVX it runs ConvRowF32Ref.
//
//go:noescape
func ConvRowF32(dst, x, wT, b []float32, filters, cols int, fold bool)

// ConvRowF64 is ConvRowF32 at float64 (see ConvRowF64Ref).
//
//go:noescape
func ConvRowF64(dst, x, wT, b []float64, filters, cols int, fold bool)

func cpuHasAVX() bool

// useAVX selects the 8-wide variant of the wide loop inside
// MatVecBiasF32 and the AVX conv row kernels. The results are
// bit-identical either way (and to the references), so the CPU gate
// selects speed, never values.
var useAVX = cpuHasAVX()
