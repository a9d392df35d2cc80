// Package simd holds the SIMD kernels behind the nn package's
// streaming engine: generic portable references that define the exact
// per-output operation order, and amd64 AVX assembly that must match
// them bit-for-bit at both widths. On !amd64, and under the purego
// build tag, the references are the implementation, so results are
// identical across architectures by construction and CI can run the
// portable kernels on an amd64 host (go test -tags purego).
//
// The kernels live in their own package deliberately. An assembly file
// inside package nn itself measurably perturbed the code layout of
// unrelated hot loops (the recurrent baseline layers lost ~20% on
// Benchmark_Table3_Inference_CNNBiGRU_400ms with the .s file present
// and untouched); fencing the assembly behind a package boundary
// restored them. The extra call is noise against a kernel invocation.
//
// Two kernels live here, each at float32 and float64:
//
//   - ConvRowF32 / ConvRowF64 (reference ConvRowRef): the filter-major
//     conv row kernels the streaming engine computes every conv row
//     with, the ReLU and the max pool's running max fused in.
//   - HeadF32 / HeadF64 (reference HeadRef): the output-lane dense
//     kernels the streaming engine computes every wide head layer
//     with, the ReLU fused in and exact-zero inputs skipped.
//
// # Per-output order
//
// One order per kernel, the same at both widths. It is frozen by the
// float64 bit-identity contract (nn/kernels.go) and every committed
// artifact, and nn's generic row-major kernels define it at either
// width:
//
//	conv row (cols < 32, nn's narrow matVecBias): bias, then (p0+p1)
//	product pairs in ascending column order, then the remainder
//	column singly.
//
//	head, sparse (cols ≤ MaxSparseCols and at least cols/8 inputs
//	exactly zero, nn's matVecBiasSparse): bias, then one term per
//	nonzero column in ascending order.
//
//	head, dense otherwise (nn's matVecBiasWide): bias, then
//	(p0+p1)+(p2+p3) per 4-column block, then the remainder singly.
//
// The dense order starts from the bias, so it must not skip zeros: a
// −0 bias plus a +0 product is +0. The sparse order's one edge is a
// non-finite weight times an exact zero, which the dense order turns
// into NaN and the skip does not; weights are finite by the load-time
// contract.
//
// # Filter-major conv rows
//
// A conv row is Filters outputs over one Kernel·InCh input window.
// Row-major, each output is a short dot product: the loop is front-end
// bound on loads and pays a horizontal lane fold per filter. The conv
// row kernels instead read weights transposed once at compile time,
// wT[i·filters + f] = W[f][i], so one column i is a contiguous vector
// across filters: they broadcast x[i] and keep every filter in its own
// SIMD lane. Each lane runs exactly the per-output order above for its
// own filter, so the layout changes which lane does the work, never
// the arithmetic, and every filter is lane-uniform by construction (a
// filter computes the same bits in any lane of any tile, at any filter
// count). The kernels are defined for cols < 32 only; nn refuses to
// stream a wider conv window.
//
// After the sum each lane applies the ReLU clamp and then either
// stores the result or folds it into dst as a running max:
//
//   - ReLU is compare-≤0-and-mask: v ≤ 0 becomes +0 (so −0 becomes
//     +0) and NaN propagates because the comparison is false — exactly
//     `if v <= 0 { v = 0 }`.
//   - The max is `v > old ? v : old` with a strict `>`: a NaN v keeps
//     old, a NaN old is kept, and equal values keep old. VMAXPS/VMAXPD
//     with v as the first source and old as the second compute exactly
//     that, NaN cases included.
//
// # Output-lane head kernels
//
// A head Dense layer is Out outputs over one In-wide input, with In in
// the hundreds. The head kernels read its weights transposed once at
// compile time, one row of rows weights per input column, so one
// column is a contiguous vector across outputs: they broadcast x[i]
// and keep every output in its own SIMD lane, eight registers at a
// time (32 f64 or 64 f32 outputs), each lane following the row-major
// order. The nonzero columns are found branchlessly — a vector
// not-equal compare (true for NaN, like Go's x != 0) and a movemask
// per 8 columns into a bit mask kept in the kernel's frame — and
// visited in ascending order by walking the set bits.
//
// # Rules for the assembly
//
// Multiplies and adds only, never fused: VMULPS/VADDPS (or
// VMULPD/VADDPD). The Go spec lets implementations fuse a multiply-add
// unless the product is explicitly rounded, so every multiply in the
// references is pinned with an explicit conversion, S(a*b); the
// assembly never fuses either. Each kernel body is written once, as a
// macro expanded at both widths, so the f32 and f64 kernels run the
// same instruction sequence over four or eight lanes. The kernels need
// AVX; on an amd64 host without it the wrappers run the references,
// which compute the same bits.
package simd

// ConvRowRef is the portable definition of ConvRowF32 and ConvRowF64:
// for each filter f, v = relu(b[f] + Σ_i wT[i·filters+f]·x[i]) in the
// package's order — bias, then (p0+p1) pairs in ascending column
// order, then the remainder column — then dst[f] = v, or with fold
// dst[f] = v > dst[f] ? v : dst[f]. cols must be < 32.
func ConvRowRef[S float32 | float64](dst, x, wT, b []S, filters, cols int, fold bool) {
	for f := 0; f < filters; f++ {
		s := b[f]
		i := 0
		for ; i+2 <= cols; i += 2 {
			s += S(wT[i*filters+f]*x[i]) + S(wT[(i+1)*filters+f]*x[i+1])
		}
		for ; i < cols; i++ {
			s += S(wT[i*filters+f] * x[i])
		}
		if s <= 0 {
			s = 0
		}
		if !fold || s > dst[f] {
			dst[f] = s
		}
	}
}

// MaxSparseCols is the widest input the head kernels skip exact-zero
// inputs over: wider layers always take the dense order. It bounds the
// kernels' nonzero-column masks, which live in their own stack frames.
const MaxSparseCols = 1152

// HeadRef is the portable definition of HeadF32 and HeadF64: for each
// output o, v = b[o] + Σ_i wT[i·rows+o]·x[i] over weights stored
// transposed ([cols × rows], one row per input column), in the order
// nn's row-major matVecBiasWide and matVecBiasSparse define. When cols
// ≤ MaxSparseCols and at least cols/8 inputs are exactly zero, the sum
// is sparse: bias, then the terms of the nonzero columns one at a time
// in ascending order. Otherwise it is dense: bias, then
// (p0+p1)+(p2+p3) per 4-column block, then the remainder terms one at
// a time. The dense order starts from the bias, so it must not skip
// zeros: a −0 bias plus a +0 product is +0. With relu, v ≤ 0 becomes
// +0 and NaN propagates. dst[o] = v.
func HeadRef[S float32 | float64](dst, x, wT, b []S, rows, cols int, relu bool) {
	sparse := false
	if cols <= MaxSparseCols {
		n := 0
		for _, v := range x[:cols] {
			if v != 0 {
				n++
			}
		}
		sparse = n <= cols-cols/8
	}
	for o := 0; o < rows; o++ {
		s := b[o]
		i := 0
		if sparse {
			for ; i < cols; i++ {
				if v := x[i]; v != 0 {
					s += S(wT[i*rows+o] * v)
				}
			}
		}
		for ; i+4 <= cols; i += 4 {
			p01 := S(wT[i*rows+o]*x[i]) + S(wT[(i+1)*rows+o]*x[i+1])
			p23 := S(wT[(i+2)*rows+o]*x[i+2]) + S(wT[(i+3)*rows+o]*x[i+3])
			s += p01 + p23
		}
		for ; i < cols; i++ {
			s += S(wT[i*rows+o] * x[i])
		}
		if relu && s <= 0 {
			s = 0
		}
		dst[o] = s
	}
}
