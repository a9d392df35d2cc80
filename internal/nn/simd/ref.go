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
// Two kernel families live here:
//
//   - MatVecBiasF32: the row-major f32 matrix-vector kernel behind
//     nn's dense layers, Conv1D.Forward at f32 and any conv branch too
//     wide for the lane kernels (Kernel·InCh ≥ 32).
//   - ConvRowF32 / ConvRowF64: the filter-major conv row kernels the
//     streaming engine computes every narrow conv row with, at either
//     width, with the ReLU and the max pool's running max fused in.
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
// bit-identical, so the CPU gate selects speed, never values. The f32
// wide path never routes to a sparse kernel: a dense 4-lane pass beats
// the scalar gather on every layer shape in this topology, and one
// fewer x-dependent branch keeps the order a function of cols alone.
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
// # Rules for the assembly
//
// Multiplies and adds only, never fused: VMULPS/VADDPS (or
// VMULPD/VADDPD) and their SSE forms. The Go spec lets implementations
// fuse a multiply-add unless the product is explicitly rounded, so
// every multiply in the references is pinned with an explicit
// conversion; the assembly never fuses either. The conv row kernels
// need AVX; on an amd64 host without it the wrappers run the
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
