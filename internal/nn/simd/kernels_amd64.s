//go:build !purego

// SSE/AVX kernels. The operation order is specified by the Ref
// functions in ref.go; every instruction sequence here is the literal
// SIMD transcription of that order, so asm and reference are
// bit-identical. MULP/ADDP only — no FMA (the references cannot fuse
// either). Leaf functions, no stack frame, nothing escapes.

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
// combined as (Y0+Y2)+(Y1+Y3), + bias, remainder columns singly.
// Without AVX it tail-calls ConvRowF32Ref, which has the same frame.
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
