// Package simd holds the SIMD kernels behind the nn package's
// dispatch: portable references that define the exact per-output
// operation order, and amd64 SSE/AVX assembly that must match them
// bit-for-bit. On !amd64, and under the purego build tag, the
// references are the implementation, so results are identical across
// architectures by construction and CI can run the portable kernels
// on an amd64 host (go test -tags purego).
//
// The kernels live in their own package deliberately. An assembly
// file inside package nn itself measurably perturbed the code layout
// of unrelated hot loops (the recurrent baseline layers lost ~20% on
// Benchmark_Table3_Inference_CNNBiGRU_400ms with the .s file present
// and untouched); fencing the assembly behind a package boundary
// restored them. The extra call is noise against a kernel invocation.
//
// Three kernel families live here:
//
//   - MatVecBiasF32: the row-major f32 matrix-vector kernel behind
//     nn's dense layers, Conv1D.Forward at f32 and any conv branch too
//     wide for the lane kernels (Kernel·InCh ≥ 32).
//   - ConvRowF32 / ConvRowF64: the filter-major conv row kernels the
//     streaming engine computes every narrow conv row with, at either
//     width, with the ReLU and the max pool's running max fused in.
//   - HeadF32 / HeadF64: the output-lane dense kernels the streaming
//     engine computes every wide head layer with, at either width,
//     with the ReLU fused in and exact-zero inputs skipped.
//
// # Per-output order
//
// The float64 order is frozen by the bit-identity contract
// (nn/kernels.go) and by every committed artifact and test fixture:
// bias, then (p0+p1) product pairs in ascending column order, then
// the remainder column singly (nn's narrow matVecBias order). The
// float32 order is this repo's own to define — no prior artifact
// pins it — and it is defined here as the order a 4-lane SSE
// implementation produces, fixed by cols alone:
//
//	narrow (cols < 32): four lane accumulators q0..q3; each full
//	4-column block i adds q_l += w[i+l]·x[i+l]. Lanes combine as
//	(q0+q2)+(q1+q3), then + bias, then the <4 remainder columns are
//	added singly in ascending order.
//
//	wide (cols ≥ 32, MatVecBiasF32 only): four quad accumulators
//	V0..V3 round-robin over 16-column superblocks (V_j takes columns
//	[16t+4j, 16t+4j+4)). They combine elementwise as (V0+V2)+(V1+V3)
//	into one quad, the leftover full 4-column blocks accumulate into
//	that quad, and the lane combine / bias / remainder proceed as in
//	the narrow case.
//
// The 16-column round-robin was chosen so two 8-wide AVX accumulators
// ([V0|V1] and [V2|V3]) perform the exact per-lane multiply/add
// sequence of the four SSE quads: the AVX and SSE loops are
// bit-identical, so the CPU gate selects speed, never values. Lane l
// of V_j sums the columns i ≡ 4j+l (mod 16): 16 partial classes c_k,
// k = i mod 16, combined as q_l = (c_l+c_{8+l})+(c_{4+l}+c_{12+l}).
//
// The order is a function of cols alone, yet HeadF32 may skip the
// class-partial terms whose input is exactly zero without changing a
// bit, for finite weights. Every partial starts at +0, and a
// round-to-nearest sum is −0 only when both operands are −0, so no
// partial is ever −0 — and adding a ±0 term to a value that is not −0
// returns it unchanged. The one edge case is a non-finite weight times
// an exact zero: the row-major kernel turns it into NaN, the skip does
// not — the same edge nn's f64 sparse kernel documents. The f64 dense
// order cannot skip: it starts from the bias, and a −0 bias plus a +0
// product is +0.
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
// own filter — the narrow f32 order, or the f64 pair order — so the
// layout changes which lane does the work, never the arithmetic, and
// every filter is lane-uniform by construction (a filter computes the
// same bits in any lane of any tile, at any filter count). The lane
// kernels are defined for cols < 32 only; wider windows keep the
// row-major kernels and their wide order.
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
// order of its width. The nonzero columns are found branchlessly — a
// vector not-equal compare (true for NaN, like Go's x != 0) and a
// movemask per 4 or 8 columns into a bit mask kept in the kernel's
// frame — and visited in ascending order by walking the set bits. At
// f32 the mask is transposed per class with 8×8 bit-matrix transposes
// and the superblock columns are stored grouped by class (HeadRowF32),
// so each class partial walks contiguous rows; the 16 partials are
// spilled to the frame once per tile, not per term.
//
// # Rules for the assembly
//
// Multiplies and adds only, never fused: VMULPS/VADDPS (or
// VMULPD/VADDPD) and their SSE forms. The Go spec lets implementations
// fuse a multiply-add unless the product is explicitly rounded, so
// every multiply in the references is pinned with an explicit
// conversion; the assembly never fuses either. The conv row and head
// kernels need AVX; on an amd64 host without it the wrappers run the
// references, which compute the same bits.
package simd

// MatVecBiasF32Ref is the portable definition of the f32 single
// kernel's arithmetic: dst[o] = b[o] + Σ_i w[o·cols+i]·x[i], in the
// package-documented order. The amd64 assembly must match it
// bit-for-bit.
func MatVecBiasF32Ref(dst, x, w, b []float32, rows, cols int) {
	for o := 0; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		var q [4]float32
		i := 0
		if cols >= 32 {
			var v [4][4]float32
			for ; i+16 <= cols; i += 16 {
				for j := 0; j < 4; j++ {
					for l := 0; l < 4; l++ {
						v[j][l] += float32(row[i+4*j+l] * x[i+4*j+l])
					}
				}
			}
			for l := 0; l < 4; l++ {
				q[l] = (v[0][l] + v[2][l]) + (v[1][l] + v[3][l])
			}
		}
		for ; i+4 <= cols; i += 4 {
			q[0] += float32(row[i] * x[i])
			q[1] += float32(row[i+1] * x[i+1])
			q[2] += float32(row[i+2] * x[i+2])
			q[3] += float32(row[i+3] * x[i+3])
		}
		s := (q[0] + q[2]) + (q[1] + q[3])
		s += b[o]
		for ; i < cols; i++ {
			s += float32(row[i] * x[i])
		}
		dst[o] = s
	}
}

// ConvRowF32Ref is the portable definition of ConvRowF32: for each
// filter f, v = relu(b[f] + Σ_i wT[i·filters+f]·x[i]) in the narrow
// f32 order, then dst[f] = v, or with fold dst[f] = v > dst[f] ? v :
// dst[f]. cols must be < 32.
func ConvRowF32Ref(dst, x, wT, b []float32, filters, cols int, fold bool) {
	for f := 0; f < filters; f++ {
		var q [4]float32
		i := 0
		for ; i+4 <= cols; i += 4 {
			q[0] += float32(wT[i*filters+f] * x[i])
			q[1] += float32(wT[(i+1)*filters+f] * x[i+1])
			q[2] += float32(wT[(i+2)*filters+f] * x[i+2])
			q[3] += float32(wT[(i+3)*filters+f] * x[i+3])
		}
		s := (q[0] + q[2]) + (q[1] + q[3])
		s += b[f]
		for ; i < cols; i++ {
			s += float32(wT[i*filters+f] * x[i])
		}
		if s <= 0 {
			s = 0
		}
		if !fold || s > dst[f] {
			dst[f] = s
		}
	}
}

// ConvRowF64Ref is the portable definition of ConvRowF64: ConvRowF32Ref
// at float64, in the frozen f64 order — bias, then (p0+p1) pairs in
// ascending column order, then the remainder column. cols must be < 32.
func ConvRowF64Ref(dst, x, wT, b []float64, filters, cols int, fold bool) {
	for f := 0; f < filters; f++ {
		s := b[f]
		i := 0
		for ; i+2 <= cols; i += 2 {
			s += float64(wT[i*filters+f]*x[i]) + float64(wT[(i+1)*filters+f]*x[i+1])
		}
		for ; i < cols; i++ {
			s += float64(wT[i*filters+f] * x[i])
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
// inputs over: wider f64 layers always take the dense order, and
// HeadF32 runs its reference beyond it. It bounds the kernels'
// nonzero-column masks, which live in their own stack frames.
const MaxSparseCols = 1152

// HeadF64Ref is the portable definition of HeadF64: for each output
// o, v = b[o] + Σ_i wT[i·rows+o]·x[i] over weights stored transposed
// ([cols × rows], one row per input column), in the order nn's
// row-major matVecBiasWide and matVecBiasSparse define. When cols ≤
// MaxSparseCols and at least cols/8 inputs are exactly zero, the sum
// is sparse: bias, then the terms of the nonzero columns one at a
// time in ascending order. Otherwise it is dense: bias, then
// (p0+p1)+(p2+p3) per 4-column block, then the remainder terms one at
// a time. The dense order starts from the bias, so it must not skip
// zeros: a −0 bias plus a +0 product is +0. With relu, v ≤ 0 becomes
// +0 and NaN propagates. dst[o] = v.
func HeadF64Ref(dst, x, wT, b []float64, rows, cols int, relu bool) {
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
					s += float64(wT[i*rows+o] * v)
				}
			}
		}
		for ; i+4 <= cols; i += 4 {
			p01 := float64(wT[i*rows+o]*x[i]) + float64(wT[(i+1)*rows+o]*x[i+1])
			p23 := float64(wT[(i+2)*rows+o]*x[i+2]) + float64(wT[(i+3)*rows+o]*x[i+3])
			s += p01 + p23
		}
		for ; i < cols; i++ {
			s += float64(wT[i*rows+o] * x[i])
		}
		if relu && s <= 0 {
			s = 0
		}
		dst[o] = s
	}
}

// HeadTileF32 is the number of outputs HeadF32 accumulates in
// registers per pass over the nonzero columns: eight YMM of eight
// lanes. Below it only the kernel's masked tiles run, one YMM at a
// time through all 16 class partials, and the row-major MatVecBiasF32
// is faster.
const HeadTileF32 = 64

// headSuperblocks returns how many 16-column superblocks the f32
// order drains before its quads: cols/16 for wide inputs, none for
// narrow ones (cols < 32), exactly as MatVecBiasF32Ref.
func headSuperblocks(cols int) int {
	if cols < 32 {
		return 0
	}
	return cols / 16
}

// HeadRowF32 returns the row of HeadF32's transposed weight layout
// that holds input column i of a cols-wide layer. The superblock
// columns [0, 16·nsb) are grouped by f32 partial class k = i mod 16,
// each class's columns in ascending order (row k·nsb + i/16), so a
// class partial walks contiguous rows; the columns after them keep
// their own index.
func HeadRowF32(i, cols int) int {
	nsb := headSuperblocks(cols)
	if i >= 16*nsb {
		return i
	}
	return (i%16)*nsb + i/16
}

// HeadF32Ref is the portable definition of HeadF32: for each output o,
// v = b[o] + Σ_i w[o][i]·x[i] in MatVecBiasF32Ref's order, reading the
// weight of column i from row HeadRowF32(i, cols) of wT ([cols × rows]),
// then the optional ReLU clamp as in HeadF64Ref. Class partials skip
// the columns whose input is exactly zero. That is exact for finite
// weights: every partial starts at +0, and a round-to-nearest sum is
// −0 only when both operands are −0, so no partial is ever −0 and
// adding a ±0 term never changes it. The one edge is a non-finite
// weight times an exact zero, which the row-major kernel turns into
// NaN and this order skips — the same edge matVecBiasSparse has at
// f64.
func HeadF32Ref(dst, x, wT, b []float32, rows, cols int, relu bool) {
	nsb := headSuperblocks(cols)
	sb := 16 * nsb
	for o := 0; o < rows; o++ {
		var c [16]float32
		for k := range c {
			for t := 0; t < nsb; t++ {
				if v := x[16*t+k]; v != 0 {
					c[k] += float32(wT[(k*nsb+t)*rows+o] * v)
				}
			}
		}
		var q [4]float32
		for l := range q {
			q[l] = (c[l] + c[8+l]) + (c[4+l] + c[12+l])
		}
		i := sb
		for ; i+4 <= cols; i += 4 {
			for l := range q {
				q[l] += float32(wT[(i+l)*rows+o] * x[i+l])
			}
		}
		s := (q[0] + q[2]) + (q[1] + q[3])
		s += b[o]
		for ; i < cols; i++ {
			s += float32(wT[i*rows+o] * x[i])
		}
		if relu && s <= 0 {
			s = 0
		}
		dst[o] = s
	}
}
