//go:build !purego

package simd

// SSE/AVX implementations (kernels_amd64.s). Each follows the
// operation order defined by its Ref function exactly, so assembly and
// reference are bit-identical. SSE2 is part of the amd64 baseline, so
// MatVecBiasF32 needs no feature detection; the conv row and head
// kernels need AVX and tail-call their references without it. All are
// assembly leaves that allocate nothing: NOSPLIT, except the f32 head
// body, whose 4 KiB frame takes the ordinary stack check.

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

// HeadF64 computes one dense head layer from transposed weights, one
// output per SIMD lane (see HeadF64Ref). Without AVX it runs
// HeadF64Ref.
//
//go:noescape
func HeadF64(dst, x, wT, b []float64, rows, cols int, relu bool)

// HeadF32 computes one dense head layer from class-grouped transposed
// weights, one output per SIMD lane (see HeadF32Ref). Without AVX, or
// beyond MaxSparseCols, it runs HeadF32Ref.
//
//go:noescape
func HeadF32(dst, x, wT, b []float32, rows, cols int, relu bool)

// headF64AVX and headF32AVX are the kernels' bodies, which HeadF64
// and HeadF32 jump to once they have chosen them. They keep their
// nonzero-column masks and class partials in their own frames.
//
//go:noescape
func headF64AVX(dst, x, wT, b []float64, rows, cols int, relu bool)

//go:noescape
func headF32AVX(dst, x, wT, b []float32, rows, cols int, relu bool)

func cpuHasAVX() bool

// useAVX selects the 8-wide variant of the wide loop inside
// MatVecBiasF32 and the AVX conv row kernels. The results are
// bit-identical either way (and to the references), so the CPU gate
// selects speed, never values.
var useAVX = cpuHasAVX()
