//go:build !purego

// SSE/AVX kernels. The operation order is specified by the Ref
// functions in ref.go; every instruction sequence here is the literal
// SIMD transcription of that order, so asm and reference are
// bit-identical. MULP/ADDP only — no FMA (the references cannot fuse
// either). Leaf functions, nothing escapes; only the head kernel
// bodies have a stack frame, which holds their masks and partials.

#include "go_asm.h"
#include "textflag.h"

// func MatVecBiasF32(dst, x, w, b []float32, rows, cols int)
//
// Per row: wide inputs first drain 16-column superblocks into four
// round-robin quad accumulators X0..X3, combined as (X0+X2)+(X1+X3);
// the leftover full 4-column blocks accumulate into the combined quad
// (narrow rows start there with a zero quad); lanes fold as
// (l0+l2)+(l1+l3); add bias; scalar remainder ascending.
TEXT ·MatVecBiasF32(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ rows+96(FP), R8
	MOVQ cols+104(FP), R9

	MOVQ R9, R12
	ANDQ $-16, R12 // R12 = cols &^ 15: superblock limit
	MOVQ R9, R13
	ANDQ $-4, R13  // R13 = cols &^ 3: quad limit

	TESTQ R8, R8
	JLE  mvb_done

mvb_row:
	XORPS X0, X0
	XORQ  R11, R11 // i = 0
	CMPQ  R9, $32
	JLT  mvb_quad  // narrow: single quad accumulator only

	CMPB ·useAVX(SB), $0
	JNE  mvb_wide_avx

	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
mvb_wide16:
	CMPQ   R11, R12
	JGE    mvb_combine
	MOVUPS (DX)(R11*4), X4
	MOVUPS (SI)(R11*4), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	MOVUPS 16(DX)(R11*4), X5
	MOVUPS 16(SI)(R11*4), X6
	MULPS  X6, X5
	ADDPS  X5, X1
	MOVUPS 32(DX)(R11*4), X6
	MOVUPS 32(SI)(R11*4), X7
	MULPS  X7, X6
	ADDPS  X6, X2
	MOVUPS 48(DX)(R11*4), X7
	MOVUPS 48(SI)(R11*4), X8
	MULPS  X8, X7
	ADDPS  X7, X3
	ADDQ   $16, R11
	JMP    mvb_wide16

mvb_combine:
	ADDPS X2, X0 // V0+V2
	ADDPS X3, X1 // V1+V3
	ADDPS X1, X0 // (V0+V2)+(V1+V3)
	JMP   mvb_quad

	// 8-wide superblock drain: Y0 = [V0|V1], Y1 = [V2|V3]. Each lane
	// sees one VMULPS rounding and one VADDPS rounding per superblock —
	// the same scalar operation sequence as the SSE quads above.
mvb_wide_avx:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
mvb_wide32:
	CMPQ    R11, R12
	JGE     mvb_combine_avx
	VMOVUPS (DX)(R11*4), Y4
	VMULPS  (SI)(R11*4), Y4, Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS 32(DX)(R11*4), Y5
	VMULPS  32(SI)(R11*4), Y5, Y5
	VADDPS  Y5, Y1, Y1
	ADDQ    $16, R11
	JMP     mvb_wide32

mvb_combine_avx:
	VADDPS       Y1, Y0, Y0   // [V0+V2 | V1+V3]
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0   // (V0+V2)+(V1+V3)
	VZEROUPPER

mvb_quad:
	CMPQ   R11, R13
	JGE    mvb_fold
	MOVUPS (DX)(R11*4), X4
	MOVUPS (SI)(R11*4), X5
	MULPS  X5, X4
	ADDPS  X4, X0
	ADDQ   $4, R11
	JMP    mvb_quad

mvb_fold:
	MOVAPS  X0, X1
	MOVHLPS X0, X1       // X1 low = [l2, l3]
	ADDPS   X0, X1       // X1 = [l0+l2, l1+l3, ...]
	MOVAPS  X1, X2
	SHUFPS  $0x01, X1, X2 // X2 lane0 = l1+l3
	ADDSS   X2, X1       // (l0+l2)+(l1+l3)
	ADDSS   (BX), X1     // + b[o]

mvb_rem:
	CMPQ  R11, R9
	JGE   mvb_store
	MOVSS (DX)(R11*4), X4
	MULSS (SI)(R11*4), X4
	ADDSS X4, X1
	INCQ  R11
	JMP   mvb_rem

mvb_store:
	MOVSS X1, (DI)
	ADDQ  $4, DI
	ADDQ  $4, BX
	LEAQ  (DX)(R9*4), DX // next weight row
	DECQ  R8
	JNZ   mvb_row

mvb_done:
	RET

// Filter-major conv row kernels. Per call: dst[f] = relu(b[f] +
// Σ_i wT[i·filters+f]·x[i]) for every filter, stored, or folded into
// dst as max(v, dst[f]) when fold is set. Filters sit in SIMD lanes:
// full 8-lane (f32) or 4-lane (f64) tiles read their weights straight
// from memory; the ragged last tile loads and stores through a lane
// mask (VMASKMOV never touches masked-off memory). Each lane runs the
// Ref order for its own filter. ReLU is VCMPP{S,D} $2 (v ≤ 0, false for
// NaN) then VANDNP: the mask zeroes v ≤ 0 (so −0 becomes +0) and keeps
// NaN. The fold is VMAXP with v as the first source and old as the
// second, which returns v > old ? v : old — old whenever either is NaN.
// R11 holds the byte stride between weight columns (filters·size).

// func ConvRowF32(dst, x, wT, b []float32, filters, cols int, fold bool)
//
// Per tile: four lane accumulators Y0..Y3 over 4-column blocks,
// combined as (Y0+Y2)+(Y1+Y3), + bias, remainder columns singly; full
// tiles run in pairs while 16 filters remain. Without AVX it
// tail-calls ConvRowF32Ref, which has the same frame.
TEXT ·ConvRowF32(SB), NOSPLIT, $0-113
	CMPB    ·useAVX(SB), $0
	JEQ     cr32_ref
	MOVQ    dst_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    wT_base+48(FP), DX
	MOVQ    b_base+72(FP), BX
	MOVQ    filters+96(FP), R8
	MOVQ    cols+104(FP), R9
	MOVBQZX fold+112(FP), R10

	MOVQ   R8, R11
	SHLQ   $2, R11            // column stride in bytes
	LEAQ   (R11)(R11*2), R12  // three columns
	MOVQ   R9, R13
	ANDQ   $-4, R13           // quad limit
	VXORPS Y15, Y15, Y15      // ReLU compare operand

	// Pairs of full tiles: 16 filters per pass share every broadcast,
	// tile A in Y0..Y3 and tile B in Y8..Y11, so each lane's
	// operations are those of the single-tile loop below.
cr32_pair:
	CMPQ   R8, $16
	JLT    cr32_tile
	MOVQ   DX, AX
	XORQ   CX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

cr32_pquad:
	CMPQ         CX, R13
	JGE          cr32_pcomb
	VBROADCASTSS (SI)(CX*4), Y4
	VBROADCASTSS 4(SI)(CX*4), Y5
	VBROADCASTSS 8(SI)(CX*4), Y6
	VBROADCASTSS 12(SI)(CX*4), Y7
	VMULPS       (AX), Y4, Y12
	VADDPS       Y12, Y0, Y0
	VMULPS       32(AX), Y4, Y13
	VADDPS       Y13, Y8, Y8
	VMULPS       (AX)(R11*1), Y5, Y12
	VADDPS       Y12, Y1, Y1
	VMULPS       32(AX)(R11*1), Y5, Y13
	VADDPS       Y13, Y9, Y9
	VMULPS       (AX)(R11*2), Y6, Y12
	VADDPS       Y12, Y2, Y2
	VMULPS       32(AX)(R11*2), Y6, Y13
	VADDPS       Y13, Y10, Y10
	VMULPS       (AX)(R12*1), Y7, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       32(AX)(R12*1), Y7, Y13
	VADDPS       Y13, Y11, Y11
	LEAQ         (AX)(R11*4), AX
	ADDQ         $4, CX
	JMP          cr32_pquad

cr32_pcomb:
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	VADDPS Y1, Y0, Y0
	VADDPS Y10, Y8, Y8
	VADDPS Y11, Y9, Y9
	VADDPS Y9, Y8, Y8
	VADDPS (BX), Y0, Y0
	VADDPS 32(BX), Y8, Y8

cr32_prem:
	CMPQ         CX, R9
	JGE          cr32_prelu
	VBROADCASTSS (SI)(CX*4), Y4
	VMULPS       (AX), Y4, Y12
	VADDPS       Y12, Y0, Y0
	VMULPS       32(AX), Y4, Y13
	VADDPS       Y13, Y8, Y8
	ADDQ         R11, AX
	INCQ         CX
	JMP          cr32_prem

cr32_prelu:
	VCMPPS  $2, Y15, Y0, Y6
	VANDNPS Y0, Y6, Y0
	VCMPPS  $2, Y15, Y8, Y7
	VANDNPS Y8, Y7, Y8
	TESTQ   R10, R10
	JZ      cr32_pstore
	VMAXPS  (DI), Y0, Y0
	VMAXPS  32(DI), Y8, Y8

cr32_pstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y8, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	ADDQ    $64, DX
	SUBQ    $16, R8
	JMP     cr32_pair

cr32_tile:
	CMPQ R8, $8
	JLT  cr32_ragged
	MOVQ DX, AX
	XORQ CX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

cr32_quad:
	CMPQ         CX, R13
	JGE          cr32_comb
	VBROADCASTSS (SI)(CX*4), Y4
	VMULPS       (AX), Y4, Y4
	VADDPS       Y4, Y0, Y0
	VBROADCASTSS 4(SI)(CX*4), Y5
	VMULPS       (AX)(R11*1), Y5, Y5
	VADDPS       Y5, Y1, Y1
	VBROADCASTSS 8(SI)(CX*4), Y6
	VMULPS       (AX)(R11*2), Y6, Y6
	VADDPS       Y6, Y2, Y2
	VBROADCASTSS 12(SI)(CX*4), Y7
	VMULPS       (AX)(R12*1), Y7, Y7
	VADDPS       Y7, Y3, Y3
	LEAQ         (AX)(R11*4), AX
	ADDQ         $4, CX
	JMP          cr32_quad

cr32_comb:
	VADDPS Y2, Y0, Y0 // q0+q2
	VADDPS Y3, Y1, Y1 // q1+q3
	VADDPS Y1, Y0, Y0 // (q0+q2)+(q1+q3)
	VADDPS (BX), Y0, Y0

cr32_rem:
	CMPQ         CX, R9
	JGE          cr32_relu
	VBROADCASTSS (SI)(CX*4), Y4
	VMULPS       (AX), Y4, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         R11, AX
	INCQ         CX
	JMP          cr32_rem

cr32_relu:
	VCMPPS  $2, Y15, Y0, Y6 // v <= 0
	VANDNPS Y0, Y6, Y0
	TESTQ   R10, R10
	JZ      cr32_store
	VMAXPS  (DI), Y0, Y0    // v > old ? v : old

cr32_store:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, DX
	SUBQ    $8, R8
	JMP     cr32_tile

	// Ragged tile of 1..7 filters: Y14 = lane mask for R8 lanes.
cr32_ragged:
	TESTQ   R8, R8
	JZ      cr32_done
	LEAQ    convMask<>+32(SB), AX
	SHLQ    $2, R8
	SUBQ    R8, AX
	VMOVUPS (AX), Y14
	MOVQ    DX, AX
	XORQ    CX, CX
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3

cr32_rquad:
	CMPQ         CX, R13
	JGE          cr32_rcomb
	VBROADCASTSS (SI)(CX*4), Y4
	VMASKMOVPS   (AX), Y14, Y8
	VMULPS       Y8, Y4, Y4
	VADDPS       Y4, Y0, Y0
	VBROADCASTSS 4(SI)(CX*4), Y5
	VMASKMOVPS   (AX)(R11*1), Y14, Y9
	VMULPS       Y9, Y5, Y5
	VADDPS       Y5, Y1, Y1
	VBROADCASTSS 8(SI)(CX*4), Y6
	VMASKMOVPS   (AX)(R11*2), Y14, Y10
	VMULPS       Y10, Y6, Y6
	VADDPS       Y6, Y2, Y2
	VBROADCASTSS 12(SI)(CX*4), Y7
	VMASKMOVPS   (AX)(R12*1), Y14, Y11
	VMULPS       Y11, Y7, Y7
	VADDPS       Y7, Y3, Y3
	LEAQ         (AX)(R11*4), AX
	ADDQ         $4, CX
	JMP          cr32_rquad

cr32_rcomb:
	VADDPS     Y2, Y0, Y0
	VADDPS     Y3, Y1, Y1
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS (BX), Y14, Y8
	VADDPS     Y8, Y0, Y0

cr32_rrem:
	CMPQ         CX, R9
	JGE          cr32_rrelu
	VBROADCASTSS (SI)(CX*4), Y4
	VMASKMOVPS   (AX), Y14, Y8
	VMULPS       Y8, Y4, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         R11, AX
	INCQ         CX
	JMP          cr32_rrem

cr32_rrelu:
	VCMPPS     $2, Y15, Y0, Y6
	VANDNPS    Y0, Y6, Y0
	TESTQ      R10, R10
	JZ         cr32_rstore
	VMASKMOVPS (DI), Y14, Y8
	VMAXPS     Y8, Y0, Y0

cr32_rstore:
	VMASKMOVPS Y0, Y14, (DI)

cr32_done:
	VZEROUPPER
	RET

cr32_ref:
	JMP ·ConvRowF32Ref(SB)

// func ConvRowF64(dst, x, wT, b []float64, filters, cols int, fold bool)
//
// Per tile: Y0 starts at the bias; each column pair adds (p0+p1);
// the remainder column is added singly. Without AVX it tail-calls
// ConvRowF64Ref, which has the same frame.
TEXT ·ConvRowF64(SB), NOSPLIT, $0-113
	CMPB    ·useAVX(SB), $0
	JEQ     cr64_ref
	MOVQ    dst_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    wT_base+48(FP), DX
	MOVQ    b_base+72(FP), BX
	MOVQ    filters+96(FP), R8
	MOVQ    cols+104(FP), R9
	MOVBQZX fold+112(FP), R10

	MOVQ   R8, R11
	SHLQ   $3, R11       // column stride in bytes
	MOVQ   R9, R13
	ANDQ   $-2, R13      // pair limit
	VXORPD Y15, Y15, Y15 // ReLU compare operand

cr64_tile:
	CMPQ    R8, $4
	JLT     cr64_ragged
	MOVQ    DX, AX
	XORQ    CX, CX
	VMOVUPD (BX), Y0

cr64_pair:
	CMPQ         CX, R13
	JGE          cr64_rem
	VBROADCASTSD (SI)(CX*8), Y4
	VMULPD       (AX), Y4, Y4
	VBROADCASTSD 8(SI)(CX*8), Y5
	VMULPD       (AX)(R11*1), Y5, Y5
	VADDPD       Y5, Y4, Y4 // p0+p1
	VADDPD       Y4, Y0, Y0
	LEAQ         (AX)(R11*2), AX
	ADDQ         $2, CX
	JMP          cr64_pair

cr64_rem:
	CMPQ         CX, R9
	JGE          cr64_relu
	VBROADCASTSD (SI)(CX*8), Y4
	VMULPD       (AX), Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         R11, AX
	INCQ         CX
	JMP          cr64_rem

cr64_relu:
	VCMPPD  $2, Y15, Y0, Y6 // v <= 0
	VANDNPD Y0, Y6, Y0
	TESTQ   R10, R10
	JZ      cr64_store
	VMAXPD  (DI), Y0, Y0    // v > old ? v : old

cr64_store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, DX
	SUBQ    $4, R8
	JMP     cr64_tile

	// Ragged tile of 1..3 filters: Y14 = lane mask for R8 lanes.
cr64_ragged:
	TESTQ      R8, R8
	JZ         cr64_done
	LEAQ       convMask<>+32(SB), AX
	SHLQ       $3, R8
	SUBQ       R8, AX
	VMOVUPD    (AX), Y14
	MOVQ       DX, AX
	XORQ       CX, CX
	VMASKMOVPD (BX), Y14, Y0

cr64_rpair:
	CMPQ         CX, R13
	JGE          cr64_rrem
	VBROADCASTSD (SI)(CX*8), Y4
	VMASKMOVPD   (AX), Y14, Y8
	VMULPD       Y8, Y4, Y4
	VBROADCASTSD 8(SI)(CX*8), Y5
	VMASKMOVPD   (AX)(R11*1), Y14, Y9
	VMULPD       Y9, Y5, Y5
	VADDPD       Y5, Y4, Y4
	VADDPD       Y4, Y0, Y0
	LEAQ         (AX)(R11*2), AX
	ADDQ         $2, CX
	JMP          cr64_rpair

cr64_rrem:
	CMPQ         CX, R9
	JGE          cr64_rrelu
	VBROADCASTSD (SI)(CX*8), Y4
	VMASKMOVPD   (AX), Y14, Y8
	VMULPD       Y8, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         R11, AX
	INCQ         CX
	JMP          cr64_rrem

cr64_rrelu:
	VCMPPD     $2, Y15, Y0, Y6
	VANDNPD    Y0, Y6, Y0
	TESTQ      R10, R10
	JZ         cr64_rstore
	VMASKMOVPD (DI), Y14, Y8
	VMAXPD     Y8, Y0, Y0

cr64_rstore:
	VMASKMOVPD Y0, Y14, (DI)

cr64_done:
	VZEROUPPER
	RET

cr64_ref:
	JMP ·ConvRowF64Ref(SB)

// Dense head kernels. Per call: dst[o] = b[o] + Σ_i w[o][i]·x[i] for
// every output o, with the optional ReLU (VCMPP $2 + VANDNP, as in
// the conv row kernels). Weights are transposed, one row of `rows`
// values per input column, so outputs sit in SIMD lanes: 32 (f64) or
// 64 (f32) outputs per tile accumulate in eight YMM registers, then
// masked 4-/8-lane tiles take the rest. Columns whose input is
// exactly zero are found branchlessly (VCMPP $4 = not-equal-or-NaN,
// VMOVMSKP) into a bit mask in the body's frame and skipped by walking
// the set bits with BSF, which visits them in ascending order. R11 is
// the byte stride between weight rows (rows·size); DX advances by one
// tile of outputs within every row.

// MULADD8PD adds the products of row p (eight YMM of the tile) and the
// broadcast input Y8 into the accumulators Y0..Y7.
#define MULADD8PD(p) \
	VMULPD (p), Y8, Y9; VADDPD Y9, Y0, Y0; \
	VMULPD 32(p), Y8, Y10; VADDPD Y10, Y1, Y1; \
	VMULPD 64(p), Y8, Y11; VADDPD Y11, Y2, Y2; \
	VMULPD 96(p), Y8, Y12; VADDPD Y12, Y3, Y3; \
	VMULPD 128(p), Y8, Y13; VADDPD Y13, Y4, Y4; \
	VMULPD 160(p), Y8, Y14; VADDPD Y14, Y5, Y5; \
	VMULPD 192(p), Y8, Y9; VADDPD Y9, Y6, Y6; \
	VMULPD 224(p), Y8, Y10; VADDPD Y10, Y7, Y7

// QUAD1PD adds one YMM's (p0+p1)+(p2+p3) over rows a, a+R11, c, c+R11
// and the broadcast inputs Y8..Y11 into acc.
#define QUAD1PD(off, a, c, acc) \
	VMULPD off(a), Y8, Y12; \
	VMULPD off(a)(R11*1), Y9, Y13; \
	VADDPD Y13, Y12, Y12; \
	VMULPD off(c), Y10, Y13; \
	VMULPD off(c)(R11*1), Y11, Y14; \
	VADDPD Y14, Y13, Y13; \
	VADDPD Y13, Y12, Y12; \
	VADDPD Y12, acc, acc

#define RELU1PD(r) VCMPPD $2, Y15, r, Y9; VANDNPD r, Y9, r

// func HeadF64(dst, x, wT, b []float64, rows, cols int, relu bool)
//
// Without AVX it tail-calls HeadF64Ref, which has the same frame.
TEXT ·HeadF64(SB), NOSPLIT, $0-113
	CMPB ·useAVX(SB), $0
	JEQ  hd64_ref
	JMP  ·headF64AVX(SB)

hd64_ref:
	JMP ·HeadF64Ref(SB)

// func headF64AVX(dst, x, wT, b []float64, rows, cols int, relu bool)
//
// Mode: sparse when cols ≤ MaxSparseCols and at most cols − cols/8
// inputs are nonzero (R12 = 1). Sparse tiles start at the bias and add
// one term per set mask bit; dense tiles start at the bias and add
// (p0+p1)+(p2+p3) per 4-column block, then the remainder singly.
// Frame: the nonzero mask, bit i for column i (18 words).
TEXT ·headF64AVX(SB), NOSPLIT, $144-113
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ wT_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ rows+96(FP), R8
	MOVQ cols+104(FP), R9
	MOVQ R8, R11
	SHLQ $3, R11          // row stride in bytes
	VXORPD Y15, Y15, Y15  // zero: mask and ReLU compare operand
	XORQ R12, R12         // dense unless the mask says otherwise
	CMPQ R9, $const_MaxSparseCols
	JGT  hd64_tiles

	VMOVUPD Y15, 0(SP)
	VMOVUPD Y15, 32(SP)
	VMOVUPD Y15, 64(SP)
	VMOVUPD Y15, 96(SP)
	VMOVUPD X15, 128(SP)
	XORQ R13, R13         // nonzero count
	XORQ CX, CX
	MOVQ R9, R14
	ANDQ $-8, R14
	LEAQ nibCount<>(SB), R15

hd64_m8:
	CMPQ      CX, R14
	JGE       hd64_mtail
	VCMPPD    $4, (SI)(CX*8), Y15, Y0
	VMOVMSKPD Y0, AX
	VCMPPD    $4, 32(SI)(CX*8), Y15, Y1
	VMOVMSKPD Y1, R10
	MOVBQZX   (R15)(AX*1), R12
	ADDQ      R12, R13
	MOVBQZX   (R15)(R10*1), R12
	ADDQ      R12, R13
	SHLQ      $4, R10
	ORQ       R10, AX
	MOVQ      CX, R12
	SHRQ      $3, R12
	MOVB      AL, (SP)(R12*1)
	ADDQ      $8, CX
	JMP       hd64_m8

hd64_mtail:
	CMPQ     CX, R9
	JGE      hd64_mode
	VMOVSD   (SI)(CX*8), X0
	VUCOMISD X15, X0
	SETNE    AL
	SETPS    R10B
	ORB      R10B, AL
	MOVBQZX  AL, AX
	ADDQ     AX, R13
	SHLQ     CX, AX
	MOVQ     CX, R12
	SHRQ     $6, R12
	ORQ      AX, (SP)(R12*8)
	INCQ     CX
	JMP      hd64_mtail

hd64_mode:
	MOVQ  R9, AX
	SHRQ  $3, AX
	MOVQ  R9, R14
	SUBQ  AX, R14         // cols − cols/8
	XORQ  R12, R12
	CMPQ  R13, R14
	SETLE R12B

hd64_tiles:
	MOVBQZX relu+112(FP), R10

hd64_t32:
	CMPQ    R8, $32
	JLT     hd64_t4
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	TESTQ   R12, R12
	JZ      hd64_d32
	XORQ    R13, R13      // first column of the current mask word

hd64_s32w:
	CMPQ R13, R9
	JGE  hd64_fin32
	MOVQ R13, AX
	SHRQ $3, AX
	MOVQ (SP)(AX*1), R14

hd64_s32b:
	TESTQ        R14, R14
	JZ           hd64_s32n
	BSFQ         R14, CX
	LEAQ         -1(R14), AX
	ANDQ         AX, R14
	ADDQ         R13, CX
	VBROADCASTSD (SI)(CX*8), Y8
	IMULQ        R11, CX
	ADDQ         DX, CX
	MULADD8PD(CX)
	JMP          hd64_s32b

hd64_s32n:
	ADDQ $64, R13
	JMP  hd64_s32w

hd64_d32:
	XORQ CX, CX
	MOVQ DX, AX
	MOVQ R9, R13
	ANDQ $-4, R13

hd64_d32q:
	CMPQ         CX, R13
	JGE          hd64_d32r
	VBROADCASTSD (SI)(CX*8), Y8
	VBROADCASTSD 8(SI)(CX*8), Y9
	VBROADCASTSD 16(SI)(CX*8), Y10
	VBROADCASTSD 24(SI)(CX*8), Y11
	LEAQ         (AX)(R11*2), R14
	QUAD1PD(0, AX, R14, Y0)
	QUAD1PD(32, AX, R14, Y1)
	QUAD1PD(64, AX, R14, Y2)
	QUAD1PD(96, AX, R14, Y3)
	QUAD1PD(128, AX, R14, Y4)
	QUAD1PD(160, AX, R14, Y5)
	QUAD1PD(192, AX, R14, Y6)
	QUAD1PD(224, AX, R14, Y7)
	LEAQ         (AX)(R11*4), AX
	ADDQ         $4, CX
	JMP          hd64_d32q

hd64_d32r:
	CMPQ         CX, R9
	JGE          hd64_fin32
	VBROADCASTSD (SI)(CX*8), Y8
	MULADD8PD(AX)
	ADDQ         R11, AX
	INCQ         CX
	JMP          hd64_d32r

hd64_fin32:
	TESTQ R10, R10
	JZ    hd64_st32
	RELU1PD(Y0)
	RELU1PD(Y1)
	RELU1PD(Y2)
	RELU1PD(Y3)
	RELU1PD(Y4)
	RELU1PD(Y5)
	RELU1PD(Y6)
	RELU1PD(Y7)

hd64_st32:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	ADDQ    $256, DX
	SUBQ    $32, R8
	JMP     hd64_t32

	// Tiles of 1..4 outputs: Y7 = lane mask, Y0 the accumulator.
hd64_t4:
	TESTQ      R8, R8
	JLE        hd64_done
	MOVQ       $4, AX
	CMPQ       R8, AX
	CMOVQLT    R8, AX
	SHLQ       $3, AX
	LEAQ       convMask<>+32(SB), CX
	SUBQ       AX, CX
	VMOVUPD    (CX), Y7
	VMASKMOVPD (BX), Y7, Y0
	TESTQ      R12, R12
	JZ         hd64_d4
	XORQ       R13, R13

hd64_s4w:
	CMPQ R13, R9
	JGE  hd64_fin4
	MOVQ R13, AX
	SHRQ $3, AX
	MOVQ (SP)(AX*1), R14

hd64_s4b:
	TESTQ        R14, R14
	JZ           hd64_s4n
	BSFQ         R14, CX
	LEAQ         -1(R14), AX
	ANDQ         AX, R14
	ADDQ         R13, CX
	VBROADCASTSD (SI)(CX*8), Y8
	IMULQ        R11, CX
	ADDQ         DX, CX
	VMASKMOVPD   (CX), Y7, Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y0, Y0
	JMP          hd64_s4b

hd64_s4n:
	ADDQ $64, R13
	JMP  hd64_s4w

hd64_d4:
	XORQ CX, CX
	MOVQ DX, AX
	MOVQ R9, R13
	ANDQ $-4, R13

hd64_d4q:
	CMPQ         CX, R13
	JGE          hd64_d4r
	VBROADCASTSD (SI)(CX*8), Y8
	VBROADCASTSD 8(SI)(CX*8), Y9
	VBROADCASTSD 16(SI)(CX*8), Y10
	VBROADCASTSD 24(SI)(CX*8), Y11
	LEAQ         (AX)(R11*2), R14
	VMASKMOVPD   (AX), Y7, Y12
	VMULPD       Y12, Y8, Y12
	VMASKMOVPD   (AX)(R11*1), Y7, Y13
	VMULPD       Y13, Y9, Y13
	VADDPD       Y13, Y12, Y12 // p0+p1
	VMASKMOVPD   (R14), Y7, Y13
	VMULPD       Y13, Y10, Y13
	VMASKMOVPD   (R14)(R11*1), Y7, Y14
	VMULPD       Y14, Y11, Y14
	VADDPD       Y14, Y13, Y13 // p2+p3
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y0, Y0
	LEAQ         (AX)(R11*4), AX
	ADDQ         $4, CX
	JMP          hd64_d4q

hd64_d4r:
	CMPQ         CX, R9
	JGE          hd64_fin4
	VBROADCASTSD (SI)(CX*8), Y8
	VMASKMOVPD   (AX), Y7, Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         R11, AX
	INCQ         CX
	JMP          hd64_d4r

hd64_fin4:
	TESTQ R10, R10
	JZ    hd64_st4
	RELU1PD(Y0)

hd64_st4:
	VMASKMOVPD Y0, Y7, (DI)
	ADDQ       $32, DI
	ADDQ       $32, BX
	ADDQ       $32, DX
	SUBQ       $4, R8
	JMP        hd64_t4

hd64_done:
	VZEROUPPER
	RET

// MULADD8PS is MULADD8PD at float32: 64 outputs per row.
#define MULADD8PS(p) \
	VMULPS (p), Y8, Y9; VADDPS Y9, Y0, Y0; \
	VMULPS 32(p), Y8, Y10; VADDPS Y10, Y1, Y1; \
	VMULPS 64(p), Y8, Y11; VADDPS Y11, Y2, Y2; \
	VMULPS 96(p), Y8, Y12; VADDPS Y12, Y3, Y3; \
	VMULPS 128(p), Y8, Y13; VADDPS Y13, Y4, Y4; \
	VMULPS 160(p), Y8, Y14; VADDPS Y14, Y5, Y5; \
	VMULPS 192(p), Y8, Y9; VADDPS Y9, Y6, Y6; \
	VMULPS 224(p), Y8, Y10; VADDPS Y10, Y7, Y7

// MULADDMPS adds one masked YMM of row p times Y8 into Y0.
#define MULADDMPS(p) VMASKMOVPS (p), Y7, Y9; VMULPS Y9, Y8, Y9; VADDPS Y9, Y0, Y0

// COMB1PS sets acc = (s[a]+s[b]) + (s[c]+s[d]) for one YMM of four
// frame slots, off bytes into each, with Y8 as the temporary.
#define COMB1PS(base, off, a, b, c, d, acc) \
	VMOVUPS a+off(base), acc; \
	VADDPS  b+off(base), acc, acc; \
	VMOVUPS c+off(base), Y8; \
	VADDPS  d+off(base), Y8, Y8; \
	VADDPS  Y8, acc, acc

#define RELU1PS(r) VCMPPS $2, Y15, r, Y9; VANDNPS r, Y9, r

// TRANSPOSE8 transposes the 8×8 bit matrix in x (bit 8r+c becomes bit
// 8c+r) with three delta swaps; t is scratch, m1..m3 hold the masks.
#define TRANSPOSE8(x, t, m1, m2, m3) \
	MOVQ x, t; SHRQ $7, t; XORQ x, t; ANDQ m1, t; XORQ t, x; SHLQ $7, t; XORQ t, x; \
	MOVQ x, t; SHRQ $14, t; XORQ x, t; ANDQ m2, t; XORQ t, x; SHLQ $14, t; XORQ t, x; \
	MOVQ x, t; SHRQ $28, t; XORQ x, t; ANDQ m3, t; XORQ t, x; SHLQ $28, t; XORQ t, x

// SPREAD8 stores byte k of AX to class mask base+16k, byte R10.
#define SPREAD8(base) \
	MOVB AL, base(SP)(R10*1); SHRQ $8, AX; \
	MOVB AL, base+16(SP)(R10*1); SHRQ $8, AX; \
	MOVB AL, base+32(SP)(R10*1); SHRQ $8, AX; \
	MOVB AL, base+48(SP)(R10*1); SHRQ $8, AX; \
	MOVB AL, base+64(SP)(R10*1); SHRQ $8, AX; \
	MOVB AL, base+80(SP)(R10*1); SHRQ $8, AX; \
	MOVB AL, base+96(SP)(R10*1); SHRQ $8, AX; \
	MOVB AL, base+112(SP)(R10*1)

// func HeadF32(dst, x, wT, b []float32, rows, cols int, relu bool)
//
// Without AVX, or beyond MaxSparseCols, it tail-calls HeadF32Ref,
// which has the same frame.
TEXT ·HeadF32(SB), NOSPLIT, $0-113
	CMPB ·useAVX(SB), $0
	JEQ  hd32_ref
	CMPQ cols+104(FP), $const_MaxSparseCols
	JGT  hd32_ref
	JMP  ·headF32AVX(SB)

hd32_ref:
	JMP ·HeadF32Ref(SB)

// func headF32AVX(dst, x, wT, b []float32, rows, cols int, relu bool)
//
// Per tile, in MatVecBiasF32Ref's order: the 16 class partials c_k
// (columns 16t+k of the nsb superblocks, rows k·nsb+t) accumulate
// their nonzero columns into registers and are spilled to slots
// C[k]; then per lane l, q_l = (c_l+c_{8+l})+(c_{4+l}+c_{12+l}) plus
// lane l's leftover quad columns, stored back to C[l]; then
// (q0+q2)+(q1+q3), the bias, the remainder columns singly.
// Frame: C[16] of 256 bytes at 0, then the class masks at 4096 — two
// words per class, bit t for superblock t, enough for the
// MaxSparseCols/16 superblocks HeadF32 lets through. While the masks are built,
// the per-superblock 8-column masks sit at 0 (columns 16t..16t+7) and
// 96 (16t+8..16t+15), one byte per superblock.
TEXT ·headF32AVX(SB), $4352-113
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ wT_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ rows+96(FP), R8
	MOVQ cols+104(FP), R9
	MOVQ R8, R11
	SHLQ $2, R11          // row stride in bytes
	XORQ R12, R12         // nsb: superblocks, none below 32 columns
	CMPQ R9, $32
	JLT  hd32_zero
	MOVQ R9, R12
	SHRQ $4, R12

hd32_zero:
	VXORPS  Y15, Y15, Y15 // zero: masks and ReLU compare operand
	VMOVUPS Y15, 0(SP)
	VMOVUPS Y15, 32(SP)
	VMOVUPS Y15, 64(SP)
	VMOVUPS Y15, 96(SP)
	VMOVUPS Y15, 128(SP)
	VMOVUPS Y15, 160(SP)
	VMOVUPS Y15, 4096(SP)
	VMOVUPS Y15, 4128(SP)
	VMOVUPS Y15, 4160(SP)
	VMOVUPS Y15, 4192(SP)
	VMOVUPS Y15, 4224(SP)
	VMOVUPS Y15, 4256(SP)
	VMOVUPS Y15, 4288(SP)
	VMOVUPS Y15, 4320(SP)
	XORQ    CX, CX
	MOVQ    SI, R9

hd32_msb:
	CMPQ      CX, R12
	JGE       hd32_mtr
	VCMPPS    $4, (R9), Y15, Y0
	VMOVMSKPS Y0, AX
	MOVB      AL, (SP)(CX*1)
	VCMPPS    $4, 32(R9), Y15, Y1
	VMOVMSKPS Y1, AX
	MOVB      AL, 96(SP)(CX*1)
	ADDQ      $64, R9
	INCQ      CX
	JMP       hd32_msb

hd32_mtr:
	MOVQ $0x00AA00AA00AA00AA, R13
	MOVQ $0x0000CCCC0000CCCC, R14
	MOVQ $0x00000000F0F0F0F0, R15
	XORQ CX, CX           // first superblock of group R10
	XORQ R10, R10

hd32_mg:
	CMPQ CX, R12
	JGE  hd32_mdone
	MOVQ (SP)(CX*1), AX
	TRANSPOSE8(AX, R9, R13, R14, R15)
	SPREAD8(4096)
	MOVQ 96(SP)(CX*1), AX
	TRANSPOSE8(AX, R9, R13, R14, R15)
	SPREAD8(4224)
	ADDQ $8, CX
	INCQ R10
	JMP  hd32_mg

hd32_mdone:
	IMULQ R11, R12        // class stride: nsb rows

hd32_t64:
	CMPQ R8, $64
	JLT  hd32_t8
	XORQ R13, R13         // class k
	MOVQ DX, R15          // class k's first row

hd32_k:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ   (SI)(R13*4), R10 // &x[k]
	MOVQ   R13, AX
	SHLQ   $4, AX
	MOVQ   4096(SP)(AX*1), R14
	XORQ   R9, R9         // first superblock of the mask word

hd32_kb:
	TESTQ        R14, R14
	JZ           hd32_kw
	BSFQ         R14, CX
	LEAQ         -1(R14), AX
	ANDQ         AX, R14
	ADDQ         R9, CX
	MOVQ         CX, AX
	SHLQ         $6, AX
	VBROADCASTSS (R10)(AX*1), Y8
	IMULQ        R11, CX
	ADDQ         R15, CX
	MULADD8PS(CX)
	JMP          hd32_kb

hd32_kw:
	TESTQ R9, R9
	JNZ   hd32_kend
	MOVQ  $64, R9
	MOVQ  R13, AX
	SHLQ  $4, AX
	MOVQ  4104(SP)(AX*1), R14
	JMP   hd32_kb

hd32_kend:
	MOVQ    R13, AX
	SHLQ    $8, AX
	VMOVUPS Y0, (SP)(AX*1)
	VMOVUPS Y1, 32(SP)(AX*1)
	VMOVUPS Y2, 64(SP)(AX*1)
	VMOVUPS Y3, 96(SP)(AX*1)
	VMOVUPS Y4, 128(SP)(AX*1)
	VMOVUPS Y5, 160(SP)(AX*1)
	VMOVUPS Y6, 192(SP)(AX*1)
	VMOVUPS Y7, 224(SP)(AX*1)
	ADDQ    R12, R15
	INCQ    R13
	CMPQ    R13, $16
	JLT     hd32_k

	MOVQ cols+104(FP), R9
	XORQ R13, R13         // lane l

hd32_l:
	MOVQ R13, AX
	SHLQ $8, AX
	LEAQ (SP)(AX*1), R15  // &C[l]
	COMB1PS(R15, 0, 0, 2048, 1024, 3072, Y0)
	COMB1PS(R15, 32, 0, 2048, 1024, 3072, Y1)
	COMB1PS(R15, 64, 0, 2048, 1024, 3072, Y2)
	COMB1PS(R15, 96, 0, 2048, 1024, 3072, Y3)
	COMB1PS(R15, 128, 0, 2048, 1024, 3072, Y4)
	COMB1PS(R15, 160, 0, 2048, 1024, 3072, Y5)
	COMB1PS(R15, 192, 0, 2048, 1024, 3072, Y6)
	COMB1PS(R15, 224, 0, 2048, 1024, 3072, Y7)
	XORQ    R10, R10      // leftover quads start after the superblocks
	CMPQ    R9, $32
	JLT     hd32_lq
	MOVQ    R9, R10
	ANDQ    $-16, R10

hd32_lq:
	LEAQ         4(R10), AX
	CMPQ         AX, R9
	JGT          hd32_lqd
	LEAQ         (R10)(R13*1), CX
	VBROADCASTSS (SI)(CX*4), Y8
	IMULQ        R11, CX
	ADDQ         DX, CX
	MULADD8PS(CX)
	ADDQ         $4, R10
	JMP          hd32_lq

hd32_lqd:
	VMOVUPS Y0, (R15)
	VMOVUPS Y1, 32(R15)
	VMOVUPS Y2, 64(R15)
	VMOVUPS Y3, 96(R15)
	VMOVUPS Y4, 128(R15)
	VMOVUPS Y5, 160(R15)
	VMOVUPS Y6, 192(R15)
	VMOVUPS Y7, 224(R15)
	INCQ    R13
	CMPQ    R13, $4
	JLT     hd32_l

	COMB1PS(SP, 0, 0, 512, 256, 768, Y0)
	COMB1PS(SP, 32, 0, 512, 256, 768, Y1)
	COMB1PS(SP, 64, 0, 512, 256, 768, Y2)
	COMB1PS(SP, 96, 0, 512, 256, 768, Y3)
	COMB1PS(SP, 128, 0, 512, 256, 768, Y4)
	COMB1PS(SP, 160, 0, 512, 256, 768, Y5)
	COMB1PS(SP, 192, 0, 512, 256, 768, Y6)
	COMB1PS(SP, 224, 0, 512, 256, 768, Y7)
	VADDPS  (BX), Y0, Y0
	VADDPS  32(BX), Y1, Y1
	VADDPS  64(BX), Y2, Y2
	VADDPS  96(BX), Y3, Y3
	VADDPS  128(BX), Y4, Y4
	VADDPS  160(BX), Y5, Y5
	VADDPS  192(BX), Y6, Y6
	VADDPS  224(BX), Y7, Y7
	MOVQ    R9, CX
	ANDQ    $-4, CX

hd32_r:
	CMPQ         CX, R9
	JGE          hd32_fin
	VBROADCASTSS (SI)(CX*4), Y8
	MOVQ         CX, AX
	IMULQ        R11, AX
	ADDQ         DX, AX
	MULADD8PS(AX)
	INCQ         CX
	JMP          hd32_r

hd32_fin:
	CMPB relu+112(FP), $0
	JEQ  hd32_st
	RELU1PS(Y0)
	RELU1PS(Y1)
	RELU1PS(Y2)
	RELU1PS(Y3)
	RELU1PS(Y4)
	RELU1PS(Y5)
	RELU1PS(Y6)
	RELU1PS(Y7)

hd32_st:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	ADDQ    $256, DX
	SUBQ    $64, R8
	JMP     hd32_t64

	// Tiles of 1..8 outputs: Y7 = lane mask, Y0 the accumulator; the
	// same three phases, one YMM per slot.
hd32_t8:
	TESTQ      R8, R8
	JLE        hd32_done
	MOVQ       $8, AX
	CMPQ       R8, AX
	CMOVQLT    R8, AX
	SHLQ       $2, AX
	LEAQ       convMask<>+32(SB), CX
	SUBQ       AX, CX
	VMOVUPS    (CX), Y7
	XORQ       R13, R13
	MOVQ       DX, R15

hd32_mk:
	VXORPS Y0, Y0, Y0
	LEAQ   (SI)(R13*4), R10
	MOVQ   R13, AX
	SHLQ   $4, AX
	MOVQ   4096(SP)(AX*1), R14
	XORQ   R9, R9

hd32_mkb:
	TESTQ        R14, R14
	JZ           hd32_mkw
	BSFQ         R14, CX
	LEAQ         -1(R14), AX
	ANDQ         AX, R14
	ADDQ         R9, CX
	MOVQ         CX, AX
	SHLQ         $6, AX
	VBROADCASTSS (R10)(AX*1), Y8
	IMULQ        R11, CX
	ADDQ         R15, CX
	MULADDMPS(CX)
	JMP          hd32_mkb

hd32_mkw:
	TESTQ R9, R9
	JNZ   hd32_mkend
	MOVQ  $64, R9
	MOVQ  R13, AX
	SHLQ  $4, AX
	MOVQ  4104(SP)(AX*1), R14
	JMP   hd32_mkb

hd32_mkend:
	MOVQ    R13, AX
	SHLQ    $8, AX
	VMOVUPS Y0, (SP)(AX*1)
	ADDQ    R12, R15
	INCQ    R13
	CMPQ    R13, $16
	JLT     hd32_mk

	MOVQ cols+104(FP), R9
	XORQ R13, R13

hd32_ml:
	MOVQ R13, AX
	SHLQ $8, AX
	LEAQ (SP)(AX*1), R15
	COMB1PS(R15, 0, 0, 2048, 1024, 3072, Y0)
	XORQ R10, R10
	CMPQ R9, $32
	JLT  hd32_mlq
	MOVQ R9, R10
	ANDQ $-16, R10

hd32_mlq:
	LEAQ         4(R10), AX
	CMPQ         AX, R9
	JGT          hd32_mlqd
	LEAQ         (R10)(R13*1), CX
	VBROADCASTSS (SI)(CX*4), Y8
	IMULQ        R11, CX
	ADDQ         DX, CX
	MULADDMPS(CX)
	ADDQ         $4, R10
	JMP          hd32_mlq

hd32_mlqd:
	VMOVUPS Y0, (R15)
	INCQ    R13
	CMPQ    R13, $4
	JLT     hd32_ml

	COMB1PS(SP, 0, 0, 512, 256, 768, Y0)
	VMASKMOVPS (BX), Y7, Y8
	VADDPS     Y8, Y0, Y0
	MOVQ       R9, CX
	ANDQ       $-4, CX

hd32_mr:
	CMPQ         CX, R9
	JGE          hd32_mfin
	VBROADCASTSS (SI)(CX*4), Y8
	MOVQ         CX, AX
	IMULQ        R11, AX
	ADDQ         DX, AX
	MULADDMPS(AX)
	INCQ         CX
	JMP          hd32_mr

hd32_mfin:
	CMPB relu+112(FP), $0
	JEQ  hd32_mst
	RELU1PS(Y0)

hd32_mst:
	VMASKMOVPS Y0, Y7, (DI)
	ADDQ       $32, DI
	ADDQ       $32, BX
	ADDQ       $32, DX
	SUBQ       $8, R8
	JMP        hd32_t8

hd32_done:
	VZEROUPPER
	RET

// nibCount[m] is the number of set bits in the 4-bit mask m.
DATA nibCount<>+0(SB)/8, $0x0302020102010100
DATA nibCount<>+8(SB)/8, $0x0403030203020201
GLOBL nibCount<>(SB), RODATA|NOPTR, $16

// Lane masks: 32 bytes of ones, then 32 of zeros. Loading 32 bytes at
// convMask+32−n·size gives the first n lanes set.
DATA convMask<>+0(SB)/8, $-1
DATA convMask<>+8(SB)/8, $-1
DATA convMask<>+16(SB)/8, $-1
DATA convMask<>+24(SB)/8, $-1
DATA convMask<>+32(SB)/8, $0
DATA convMask<>+40(SB)/8, $0
DATA convMask<>+48(SB)/8, $0
DATA convMask<>+56(SB)/8, $0
GLOBL convMask<>(SB), RODATA|NOPTR, $64

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE; then XGETBV must
// show the OS preserving XMM+YMM state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   avx_no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   avx_no
	MOVB  $1, ret+0(FP)
	RET

avx_no:
	MOVB  $0, ret+0(FP)
	RET
