//go:build !purego

package simd

// AVX implementations (kernels_amd64.s). Each follows the operation
// order its reference defines exactly, so assembly and reference are
// bit-identical. Without AVX each kernel tail-calls its reference at
// its own width (convRowF32Ref and kin, which share the kernel's
// frame). All are assembly leaves that allocate nothing, NOSPLIT, and
// the head bodies keep their nonzero-column masks in their own frames.

// ConvRowF32 computes one ReLU'd f32 conv row from filter-major
// weights, stored or folded into dst's running max (see ConvRowRef).
//
//go:noescape
func ConvRowF32(dst, x, wT, b []float32, filters, cols int, fold bool)

// ConvRowF64 is ConvRowF32 at float64.
//
//go:noescape
func ConvRowF64(dst, x, wT, b []float64, filters, cols int, fold bool)

// HeadF32 computes one f32 dense head layer from transposed weights,
// one output per SIMD lane (see HeadRef).
//
//go:noescape
func HeadF32(dst, x, wT, b []float32, rows, cols int, relu bool)

// HeadF64 is HeadF32 at float64.
//
//go:noescape
func HeadF64(dst, x, wT, b []float64, rows, cols int, relu bool)

// headF32AVX and headF64AVX are the head kernels' bodies, which HeadF32
// and HeadF64 jump to once they have chosen them.
//
//go:noescape
func headF32AVX(dst, x, wT, b []float32, rows, cols int, relu bool)

//go:noescape
func headF64AVX(dst, x, wT, b []float64, rows, cols int, relu bool)

func convRowF32Ref(dst, x, wT, b []float32, filters, cols int, fold bool) {
	ConvRowRef(dst, x, wT, b, filters, cols, fold)
}

func convRowF64Ref(dst, x, wT, b []float64, filters, cols int, fold bool) {
	ConvRowRef(dst, x, wT, b, filters, cols, fold)
}

func headF32Ref(dst, x, wT, b []float32, rows, cols int, relu bool) {
	HeadRef(dst, x, wT, b, rows, cols, relu)
}

func headF64Ref(dst, x, wT, b []float64, rows, cols int, relu bool) {
	HeadRef(dst, x, wT, b, rows, cols, relu)
}

func cpuHasAVX() bool

// useAVX selects the AVX kernels. Their results are bit-identical to
// the references', so the CPU gate selects speed, never values.
var useAVX = cpuHasAVX()
