package nn

import (
	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// Register-blocked micro-kernels shared by the batch forward path and
// the incremental streaming path (DESIGN.md §12). Go's scalar code on
// the inference hot loops is latency-bound, not throughput-bound: a
// single running float64 sum chains every multiply-add behind a
// ~4-cycle add, so the classic one-accumulator dot product runs far
// below the core's issue width. Two forms of blocking fix that:
// four outputs advance together over one streamed read of x (four
// independent dependency chains), and within each output the products
// are summed pairwise in small groups, which shortens the per-chain
// add recurrence and amortises loop overhead.
//
// Bit-identity contract: for a given cols, every output is computed
// as bias + the same fixed grouping of products in ascending input
// order — independent of which lane of the 4-wide block produced it,
// of rows, of the caller and of the scalar width. The batch and
// streaming paths therefore produce bit-identical results (asserted by
// TestMatVecBiasLaneUniform and the stream equivalence tests), because
// a conv row computed alone at a stride goes through exactly the
// arithmetic a full batch pass applies to it. The streaming engine's
// conv rows run the filter-major simd conv row kernels instead
// (branchStreamOf.convInto), which follow the narrow order here, one
// filter per SIMD lane (DESIGN.md §12.2), and its wide head layers the
// output-lane simd head kernels (headStepOf.denseInto), which follow
// matVecBiasWide's and matVecBiasSparse's orders, one output per lane.
// These Go kernels are the row-major definition of both orders at
// float32 and float64 alike.
//
// Every product is pinned as S(a*b). The Go spec lets a compiler fuse
// x*y + z into one rounding unless the product is explicitly
// converted, and gc does fuse on arm64; the explicit conversion keeps
// every architecture on one multiply and one add, as the simd kernels
// and their references are.

// matVecBias computes dst[o] = b[o] + Σ_i w[o·cols+i]·x[i] for
// o < rows. It is the whole inner loop of Dense.Forward (rows=Out,
// cols=In) and of one Conv1D output row (rows=Filters,
// cols=Kernel·InCh).
//
// Summation order per output, fixed by cols alone: for wide inputs
// (cols ≥ 32) products are grouped ((p0+p1)+(p2+p3)) four at a time,
// for narrow inputs (p0+p1) two at a time, remainders added singly in
// ascending order.
//
//fallvet:hotpath
func matVecBias[S tensor.Scalar](dst, x, w, b []S, rows, cols int) {
	if cols >= 32 {
		matVecBiasWide(dst, x, w, b, rows, cols)
		return
	}
	o := 0
	for ; o+4 <= rows; o += 4 {
		r0 := w[(o+0)*cols : (o+1)*cols]
		r1 := w[(o+1)*cols : (o+2)*cols]
		r2 := w[(o+2)*cols : (o+3)*cols]
		r3 := w[(o+3)*cols : (o+4)*cols]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		i := 0
		for ; i+2 <= cols; i += 2 {
			v0, v1 := x[i], x[i+1]
			s0 += S(r0[i]*v0) + S(r0[i+1]*v1)
			s1 += S(r1[i]*v0) + S(r1[i+1]*v1)
			s2 += S(r2[i]*v0) + S(r2[i+1]*v1)
			s3 += S(r3[i]*v0) + S(r3[i+1]*v1)
		}
		for ; i < cols; i++ {
			v := x[i]
			s0 += S(r0[i] * v)
			s1 += S(r1[i] * v)
			s2 += S(r2[i] * v)
			s3 += S(r3[i] * v)
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s := b[o]
		i := 0
		for ; i+2 <= cols; i += 2 {
			s += S(row[i]*x[i]) + S(row[i+1]*x[i+1])
		}
		for ; i < cols; i++ {
			s += S(row[i] * x[i])
		}
		dst[o] = s
	}
}

// maxSparseCols bounds the stack-allocated nonzero index scratch in
// matVecBiasWide; wider layers always take the dense path. The head
// kernels share the bound, so both switch at the same widths.
const maxSparseCols = simd.MaxSparseCols

// matVecBiasWide is the cols ≥ 32 body of matVecBias: the same 4-wide
// output blocking with a deeper 4-way input unroll, which is worth
// the extra remainder handling only once the inner loop dominates.
//
// Wide layers in this topology sit behind ReLU (+ max-pool), whose
// outputs are exactly +0.0 for every clipped activation — a quarter
// of the concat vector on typical windows. Terms with x[i] == 0
// contribute nothing, so the kernel first scans for nonzeros and,
// when at least 1/8 of the input is zero, accumulates only the
// surviving terms (matVecBiasSparse). Which path runs is a pure
// function of x, and both paths are lane-uniform, so every output is
// still a fixed function of (weight row, x, bias) — the bit-identity
// contract the streaming engine rests on. The one semantic edge: a
// non-finite weight multiplied by an exactly-zero activation no
// longer turns the sum into NaN; finite weights (every trained or
// initialised model here) are unaffected.
//
//fallvet:hotpath
func matVecBiasWide[S tensor.Scalar](dst, x, w, b []S, rows, cols int) {
	if cols <= maxSparseCols {
		var nz [maxSparseCols]int32
		n := 0
		for i := 0; i < cols; i++ {
			if x[i] != 0 {
				nz[n] = int32(i)
				n++
			}
		}
		if n <= cols-cols/8 {
			matVecBiasSparse(dst, x, w, b, rows, cols, nz[:n])
			return
		}
	}
	o := 0
	for ; o+4 <= rows; o += 4 {
		r0 := w[(o+0)*cols : (o+1)*cols]
		r1 := w[(o+1)*cols : (o+2)*cols]
		r2 := w[(o+2)*cols : (o+3)*cols]
		r3 := w[(o+3)*cols : (o+4)*cols]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		i := 0
		for ; i+4 <= cols; i += 4 {
			v0, v1, v2, v3 := x[i], x[i+1], x[i+2], x[i+3]
			s0 += (S(r0[i]*v0) + S(r0[i+1]*v1)) + (S(r0[i+2]*v2) + S(r0[i+3]*v3))
			s1 += (S(r1[i]*v0) + S(r1[i+1]*v1)) + (S(r1[i+2]*v2) + S(r1[i+3]*v3))
			s2 += (S(r2[i]*v0) + S(r2[i+1]*v1)) + (S(r2[i+2]*v2) + S(r2[i+3]*v3))
			s3 += (S(r3[i]*v0) + S(r3[i+1]*v1)) + (S(r3[i+2]*v2) + S(r3[i+3]*v3))
		}
		for ; i < cols; i++ {
			v := x[i]
			s0 += S(r0[i] * v)
			s1 += S(r1[i] * v)
			s2 += S(r2[i] * v)
			s3 += S(r3[i] * v)
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s := b[o]
		i := 0
		for ; i+4 <= cols; i += 4 {
			s += (S(row[i]*x[i]) + S(row[i+1]*x[i+1])) + (S(row[i+2]*x[i+2]) + S(row[i+3]*x[i+3]))
		}
		for ; i < cols; i++ {
			s += S(row[i] * x[i])
		}
		dst[o] = s
	}
}

// matVecBiasSparse accumulates only the terms whose input is nonzero,
// in ascending index order, one addition at a time per output. Eight
// outputs run in flight so each accumulator's add issues every eight
// cycles — twice its latency — and the indexed loads stay off the
// critical path. Per output the order is bias + singles over nz,
// independent of rows or lane, preserving lane uniformity.
//
//fallvet:hotpath
func matVecBiasSparse[S tensor.Scalar](dst, x, w, b []S, rows, cols int, nz []int32) {
	o := 0
	for ; o+8 <= rows; o += 8 {
		r0 := w[(o+0)*cols : (o+1)*cols]
		r1 := w[(o+1)*cols : (o+2)*cols]
		r2 := w[(o+2)*cols : (o+3)*cols]
		r3 := w[(o+3)*cols : (o+4)*cols]
		r4 := w[(o+4)*cols : (o+5)*cols]
		r5 := w[(o+5)*cols : (o+6)*cols]
		r6 := w[(o+6)*cols : (o+7)*cols]
		r7 := w[(o+7)*cols : (o+8)*cols]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		s4, s5, s6, s7 := b[o+4], b[o+5], b[o+6], b[o+7]
		for _, ii := range nz {
			i := int(ii)
			v := x[i]
			s0 += S(r0[i] * v)
			s1 += S(r1[i] * v)
			s2 += S(r2[i] * v)
			s3 += S(r3[i] * v)
			s4 += S(r4[i] * v)
			s5 += S(r5[i] * v)
			s6 += S(r6[i] * v)
			s7 += S(r7[i] * v)
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
		dst[o+4], dst[o+5], dst[o+6], dst[o+7] = s4, s5, s6, s7
	}
	for ; o < rows; o++ {
		row := w[o*cols : (o+1)*cols]
		s := b[o]
		for _, ii := range nz {
			i := int(ii)
			s += S(row[i] * x[i])
		}
		dst[o] = s
	}
}
