//go:build !purego

// AVX kernels. The operation order is specified by the references in
// ref.go; every instruction sequence here is the literal SIMD
// transcription of that order, so asm and reference are bit-identical.
// MULP/ADDP only — no FMA (the references cannot fuse either). Leaf
// functions, nothing escapes; only the head kernel bodies have a stack
// frame, which holds their nonzero-column masks.
//
// Both widths run one algorithm per kernel, so each body is written
// once, as a macro over the width macros each width section defines
// before it expands them:
//
//	VMOVUP VBCAST VMULP VADDP VCMPP VANDNP VMAXP VMASKMOVP VXORP
//	VMOVS VUCOMIS  the instruction at the width (VMOVUPD or VMOVUPS, …)
//	SZ, SH         the element size in bytes and its log2
//	LANES          elements per YMM register: one conv row or masked
//	               head tile
//	TILE           outputs per eight-register head tile
//	MASK8          sets AX and R10 to the nonzero bits of columns
//	               CX..CX+3 and CX+4..CX+7 of x
//
// Comments inside the macro bodies use /* */: a // comment would end
// the macro.

#include "go_asm.h"
#include "textflag.h"

// Filter-major conv row kernels. Per call: dst[f] = relu(b[f] +
// Σ_i wT[i·filters+f]·x[i]) for every filter, stored, or folded into
// dst as max(v, dst[f]) when fold is set. Filters sit in SIMD lanes:
// full tiles of LANES filters read their weights straight from memory;
// the ragged last tile loads and stores through a lane mask (VMASKMOV
// never touches masked-off memory). Each lane runs the reference order
// for its own filter: Y0 starts at the bias, each column pair adds
// (p0+p1), the remainder column is added singly. ReLU is VCMPP $2
// (v ≤ 0, false for NaN) then VANDNP: the mask zeroes v ≤ 0 (so −0
// becomes +0) and keeps NaN. The fold is VMAXP with v as the first
// source and old as the second, which returns v > old ? v : old — old
// whenever either is NaN.
//
// CONV_TILES is the kernel from the first tile on. It expects DI, SI,
// DX and BX at dst, x, wT and b; R8 = filters, R9 = cols, R10 = fold;
// R11 = the byte stride between weight columns (filters·SZ); R13 =
// cols rounded down to even, the pair limit; Y15 = 0.
#define CONV_TILES \
cr_tile: \
	CMPQ      R8, $LANES; \
	JLT       cr_ragged; \
	MOVQ      DX, AX; \
	XORQ      CX, CX; \
	VMOVUP    (BX), Y0; \
cr_pair: \
	CMPQ      CX, R13; \
	JGE       cr_rem; \
	VBCAST    (SI)(CX*SZ), Y4; \
	VMULP     (AX), Y4, Y4; \
	VBCAST    (1*SZ)(SI)(CX*SZ), Y5; \
	VMULP     (AX)(R11*1), Y5, Y5; \
	VADDP     Y5, Y4, Y4 /* p0+p1 */; \
	VADDP     Y4, Y0, Y0; \
	LEAQ      (AX)(R11*2), AX; \
	ADDQ      $2, CX; \
	JMP       cr_pair; \
cr_rem: \
	CMPQ      CX, R9; \
	JGE       cr_relu; \
	VBCAST    (SI)(CX*SZ), Y4; \
	VMULP     (AX), Y4, Y4; \
	VADDP     Y4, Y0, Y0; \
	ADDQ      R11, AX; \
	INCQ      CX; \
	JMP       cr_rem; \
cr_relu: \
	VCMPP     $2, Y15, Y0, Y6 /* v <= 0 */; \
	VANDNP    Y0, Y6, Y0; \
	TESTQ     R10, R10; \
	JZ        cr_store; \
	VMAXP     (DI), Y0, Y0 /* v > old ? v : old */; \
cr_store: \
	VMOVUP    Y0, (DI); \
	ADDQ      $32, DI; \
	ADDQ      $32, BX; \
	ADDQ      $32, DX; \
	SUBQ      $LANES, R8; \
	JMP       cr_tile; \
 /* Ragged tile of fewer than LANES filters: Y14 = lane mask for R8 lanes. */ \
cr_ragged: \
	TESTQ     R8, R8; \
	JZ        cr_done; \
	LEAQ      convMask<>+32(SB), AX; \
	SHLQ      $SH, R8; \
	SUBQ      R8, AX; \
	VMOVUP    (AX), Y14; \
	MOVQ      DX, AX; \
	XORQ      CX, CX; \
	VMASKMOVP (BX), Y14, Y0; \
cr_rpair: \
	CMPQ      CX, R13; \
	JGE       cr_rrem; \
	VBCAST    (SI)(CX*SZ), Y4; \
	VMASKMOVP (AX), Y14, Y8; \
	VMULP     Y8, Y4, Y4; \
	VBCAST    (1*SZ)(SI)(CX*SZ), Y5; \
	VMASKMOVP (AX)(R11*1), Y14, Y9; \
	VMULP     Y9, Y5, Y5; \
	VADDP     Y5, Y4, Y4; \
	VADDP     Y4, Y0, Y0; \
	LEAQ      (AX)(R11*2), AX; \
	ADDQ      $2, CX; \
	JMP       cr_rpair; \
cr_rrem: \
	CMPQ      CX, R9; \
	JGE       cr_rrelu; \
	VBCAST    (SI)(CX*SZ), Y4; \
	VMASKMOVP (AX), Y14, Y8; \
	VMULP     Y8, Y4, Y4; \
	VADDP     Y4, Y0, Y0; \
	ADDQ      R11, AX; \
	INCQ      CX; \
	JMP       cr_rrem; \
cr_rrelu: \
	VCMPP     $2, Y15, Y0, Y6; \
	VANDNP    Y0, Y6, Y0; \
	TESTQ     R10, R10; \
	JZ        cr_rstore; \
	VMASKMOVP (DI), Y14, Y8; \
	VMAXP     Y8, Y0, Y0; \
cr_rstore: \
	VMASKMOVP Y0, Y14, (DI); \
cr_done: \
	VZEROUPPER; \
	RET

// Dense head kernels. Per call: dst[o] = b[o] + Σ_i w[o][i]·x[i] for
// every output o, with the optional ReLU (VCMPP $2 + VANDNP, as in
// the conv row kernels). Weights are transposed, one row of `rows`
// values per input column, so outputs sit in SIMD lanes: TILE outputs
// per tile accumulate in eight YMM registers, then masked tiles of up
// to LANES outputs take the rest. Columns whose input is exactly zero
// are found branchlessly (VCMPP $4 = not-equal-or-NaN, VMOVMSKP) into
// a bit mask in the body's frame and skipped by walking the set bits
// with BSF, which visits them in ascending order. R11 is the byte
// stride between weight rows (rows·SZ); DX advances by one tile of
// outputs within every row.

// MULADD8 adds the products of row p (eight YMM of the tile) and the
// broadcast input Y8 into the accumulators Y0..Y7.
#define MULADD8(p) \
	VMULP (p), Y8, Y9; VADDP Y9, Y0, Y0; \
	VMULP 32(p), Y8, Y10; VADDP Y10, Y1, Y1; \
	VMULP 64(p), Y8, Y11; VADDP Y11, Y2, Y2; \
	VMULP 96(p), Y8, Y12; VADDP Y12, Y3, Y3; \
	VMULP 128(p), Y8, Y13; VADDP Y13, Y4, Y4; \
	VMULP 160(p), Y8, Y14; VADDP Y14, Y5, Y5; \
	VMULP 192(p), Y8, Y9; VADDP Y9, Y6, Y6; \
	VMULP 224(p), Y8, Y10; VADDP Y10, Y7, Y7

// QUAD1 adds one YMM's (p0+p1)+(p2+p3) over rows a, a+R11, c, c+R11
// and the broadcast inputs Y8..Y11 into acc.
#define QUAD1(off, a, c, acc) \
	VMULP off(a), Y8, Y12; \
	VMULP off(a)(R11*1), Y9, Y13; \
	VADDP Y13, Y12, Y12; \
	VMULP off(c), Y10, Y13; \
	VMULP off(c)(R11*1), Y11, Y14; \
	VADDP Y14, Y13, Y13; \
	VADDP Y13, Y12, Y12; \
	VADDP Y12, acc, acc

#define RELU1(r) VCMPP $2, Y15, r, Y9; VANDNP r, Y9, r

// HEAD_BODY is the head kernel after its arguments are loaded: DI, SI,
// DX and BX at dst, x, wT and b; R8 = rows, R9 = cols.
//
// Mode: sparse when cols ≤ MaxSparseCols and at most cols − cols/8
// inputs are nonzero (R12 = 1). Sparse tiles start at the bias and add
// one term per set mask bit; dense tiles start at the bias and add
// (p0+p1)+(p2+p3) per 4-column block, then the remainder singly.
// Frame: the nonzero mask, bit i for column i (18 words).
#define HEAD_BODY \
	MOVQ      R8, R11; \
	SHLQ      $SH, R11 /* row stride in bytes */; \
	VXORP     Y15, Y15, Y15 /* zero: mask and ReLU compare operand */; \
	XORQ      R12, R12 /* dense unless the mask says otherwise */; \
	CMPQ      R9, $const_MaxSparseCols; \
	JGT       hd_tiles; \
	VMOVUP    Y15, 0(SP); \
	VMOVUP    Y15, 32(SP); \
	VMOVUP    Y15, 64(SP); \
	VMOVUP    Y15, 96(SP); \
	VMOVUP    X15, 128(SP); \
	XORQ      R13, R13 /* nonzero count */; \
	XORQ      CX, CX; \
	MOVQ      R9, R14; \
	ANDQ      $-8, R14; \
	LEAQ      nibCount<>(SB), R15; \
hd_m8: \
	CMPQ      CX, R14; \
	JGE       hd_mtail; \
	MASK8; \
	MOVBQZX   (R15)(AX*1), R12; \
	ADDQ      R12, R13; \
	MOVBQZX   (R15)(R10*1), R12; \
	ADDQ      R12, R13; \
	SHLQ      $4, R10; \
	ORQ       R10, AX; \
	MOVQ      CX, R12; \
	SHRQ      $3, R12; \
	MOVB      AL, (SP)(R12*1); \
	ADDQ      $8, CX; \
	JMP       hd_m8; \
hd_mtail: \
	CMPQ      CX, R9; \
	JGE       hd_mode; \
	VMOVS     (SI)(CX*SZ), X0; \
	VUCOMIS   X15, X0; \
	SETNE     AL; \
	SETPS     R10B; \
	ORB       R10B, AL; \
	MOVBQZX   AL, AX; \
	ADDQ      AX, R13; \
	SHLQ      CX, AX; \
	MOVQ      CX, R12; \
	SHRQ      $6, R12; \
	ORQ       AX, (SP)(R12*8); \
	INCQ      CX; \
	JMP       hd_mtail; \
hd_mode: \
	MOVQ      R9, AX; \
	SHRQ      $3, AX; \
	MOVQ      R9, R14; \
	SUBQ      AX, R14 /* cols − cols/8 */; \
	XORQ      R12, R12; \
	CMPQ      R13, R14; \
	SETLE     R12B; \
hd_tiles: \
	MOVBQZX   relu+112(FP), R10; \
hd_tile: \
	CMPQ      R8, $TILE; \
	JLT       hd_mtile; \
	VMOVUP    (BX), Y0; \
	VMOVUP    32(BX), Y1; \
	VMOVUP    64(BX), Y2; \
	VMOVUP    96(BX), Y3; \
	VMOVUP    128(BX), Y4; \
	VMOVUP    160(BX), Y5; \
	VMOVUP    192(BX), Y6; \
	VMOVUP    224(BX), Y7; \
	TESTQ     R12, R12; \
	JZ        hd_d; \
	XORQ      R13, R13 /* first column of the current mask word */; \
hd_sw: \
	CMPQ      R13, R9; \
	JGE       hd_fin; \
	MOVQ      R13, AX; \
	SHRQ      $3, AX; \
	MOVQ      (SP)(AX*1), R14; \
hd_sb: \
	TESTQ     R14, R14; \
	JZ        hd_sn; \
	BSFQ      R14, CX; \
	LEAQ      -1(R14), AX; \
	ANDQ      AX, R14; \
	ADDQ      R13, CX; \
	VBCAST    (SI)(CX*SZ), Y8; \
	IMULQ     R11, CX; \
	ADDQ      DX, CX; \
	MULADD8(CX); \
	JMP       hd_sb; \
hd_sn: \
	ADDQ      $64, R13; \
	JMP       hd_sw; \
hd_d: \
	XORQ      CX, CX; \
	MOVQ      DX, AX; \
	MOVQ      R9, R13; \
	ANDQ      $-4, R13; \
hd_dq: \
	CMPQ      CX, R13; \
	JGE       hd_dr; \
	VBCAST    (SI)(CX*SZ), Y8; \
	VBCAST    (1*SZ)(SI)(CX*SZ), Y9; \
	VBCAST    (2*SZ)(SI)(CX*SZ), Y10; \
	VBCAST    (3*SZ)(SI)(CX*SZ), Y11; \
	LEAQ      (AX)(R11*2), R14; \
	QUAD1(0,  AX, R14, Y0); \
	QUAD1(32, AX, R14, Y1); \
	QUAD1(64, AX, R14, Y2); \
	QUAD1(96, AX, R14, Y3); \
	QUAD1(128, AX, R14, Y4); \
	QUAD1(160, AX, R14, Y5); \
	QUAD1(192, AX, R14, Y6); \
	QUAD1(224, AX, R14, Y7); \
	LEAQ      (AX)(R11*4), AX; \
	ADDQ      $4, CX; \
	JMP       hd_dq; \
hd_dr: \
	CMPQ      CX, R9; \
	JGE       hd_fin; \
	VBCAST    (SI)(CX*SZ), Y8; \
	MULADD8(AX); \
	ADDQ      R11, AX; \
	INCQ      CX; \
	JMP       hd_dr; \
hd_fin: \
	TESTQ     R10, R10; \
	JZ        hd_st; \
	RELU1(Y0); \
	RELU1(Y1); \
	RELU1(Y2); \
	RELU1(Y3); \
	RELU1(Y4); \
	RELU1(Y5); \
	RELU1(Y6); \
	RELU1(Y7); \
hd_st: \
	VMOVUP    Y0, (DI); \
	VMOVUP    Y1, 32(DI); \
	VMOVUP    Y2, 64(DI); \
	VMOVUP    Y3, 96(DI); \
	VMOVUP    Y4, 128(DI); \
	VMOVUP    Y5, 160(DI); \
	VMOVUP    Y6, 192(DI); \
	VMOVUP    Y7, 224(DI); \
	ADDQ      $256, DI; \
	ADDQ      $256, BX; \
	ADDQ      $256, DX; \
	SUBQ      $TILE, R8; \
	JMP       hd_tile; \
 /* Tiles of 1..LANES outputs: Y7 = lane mask, Y0 the accumulator. */ \
hd_mtile: \
	TESTQ     R8, R8; \
	JLE       hd_done; \
	MOVQ      $LANES, AX; \
	CMPQ      R8, AX; \
	CMOVQLT   R8, AX; \
	SHLQ      $SH, AX; \
	LEAQ      convMask<>+32(SB), CX; \
	SUBQ      AX, CX; \
	VMOVUP    (CX), Y7; \
	VMASKMOVP (BX), Y7, Y0; \
	TESTQ     R12, R12; \
	JZ        hd_md; \
	XORQ      R13, R13; \
hd_msw: \
	CMPQ      R13, R9; \
	JGE       hd_mfin; \
	MOVQ      R13, AX; \
	SHRQ      $3, AX; \
	MOVQ      (SP)(AX*1), R14; \
hd_msb: \
	TESTQ     R14, R14; \
	JZ        hd_msn; \
	BSFQ      R14, CX; \
	LEAQ      -1(R14), AX; \
	ANDQ      AX, R14; \
	ADDQ      R13, CX; \
	VBCAST    (SI)(CX*SZ), Y8; \
	IMULQ     R11, CX; \
	ADDQ      DX, CX; \
	VMASKMOVP (CX), Y7, Y9; \
	VMULP     Y9, Y8, Y9; \
	VADDP     Y9, Y0, Y0; \
	JMP       hd_msb; \
hd_msn: \
	ADDQ      $64, R13; \
	JMP       hd_msw; \
hd_md: \
	XORQ      CX, CX; \
	MOVQ      DX, AX; \
	MOVQ      R9, R13; \
	ANDQ      $-4, R13; \
hd_mdq: \
	CMPQ      CX, R13; \
	JGE       hd_mdr; \
	VBCAST    (SI)(CX*SZ), Y8; \
	VBCAST    (1*SZ)(SI)(CX*SZ), Y9; \
	VBCAST    (2*SZ)(SI)(CX*SZ), Y10; \
	VBCAST    (3*SZ)(SI)(CX*SZ), Y11; \
	LEAQ      (AX)(R11*2), R14; \
	VMASKMOVP (AX), Y7, Y12; \
	VMULP     Y12, Y8, Y12; \
	VMASKMOVP (AX)(R11*1), Y7, Y13; \
	VMULP     Y13, Y9, Y13; \
	VADDP     Y13, Y12, Y12 /* p0+p1 */; \
	VMASKMOVP (R14), Y7, Y13; \
	VMULP     Y13, Y10, Y13; \
	VMASKMOVP (R14)(R11*1), Y7, Y14; \
	VMULP     Y14, Y11, Y14; \
	VADDP     Y14, Y13, Y13 /* p2+p3 */; \
	VADDP     Y13, Y12, Y12; \
	VADDP     Y12, Y0, Y0; \
	LEAQ      (AX)(R11*4), AX; \
	ADDQ      $4, CX; \
	JMP       hd_mdq; \
hd_mdr: \
	CMPQ      CX, R9; \
	JGE       hd_mfin; \
	VBCAST    (SI)(CX*SZ), Y8; \
	VMASKMOVP (AX), Y7, Y9; \
	VMULP     Y9, Y8, Y9; \
	VADDP     Y9, Y0, Y0; \
	ADDQ      R11, AX; \
	INCQ      CX; \
	JMP       hd_mdr; \
hd_mfin: \
	TESTQ     R10, R10; \
	JZ        hd_mst; \
	RELU1(Y0); \
hd_mst: \
	VMASKMOVP Y0, Y7, (DI); \
	ADDQ      $32, DI; \
	ADDQ      $32, BX; \
	ADDQ      $32, DX; \
	SUBQ      $LANES, R8; \
	JMP       hd_mtile; \
hd_done: \
	VZEROUPPER; \
	RET

// float64: four lanes per YMM, 32-output head tiles.
#define VMOVUP VMOVUPD
#define VBCAST VBROADCASTSD
#define VMULP VMULPD
#define VADDP VADDPD
#define VCMPP VCMPPD
#define VANDNP VANDNPD
#define VMAXP VMAXPD
#define VMASKMOVP VMASKMOVPD
#define VXORP VXORPD
#define VMOVS VMOVSD
#define VUCOMIS VUCOMISD
#define SZ 8
#define SH 3
#define LANES 4
#define TILE 32
#define MASK8 \
	VCMPPD    $4, (SI)(CX*8), Y15, Y0; \
	VMOVMSKPD Y0, AX; \
	VCMPPD    $4, 32(SI)(CX*8), Y15, Y1; \
	VMOVMSKPD Y1, R10

// func ConvRowF64(dst, x, wT, b []float64, filters, cols int, fold bool)
//
// Without AVX it tail-calls convRowF64Ref, which has the same frame.
TEXT ·ConvRowF64(SB), NOSPLIT, $0-113
	CMPB    ·useAVX(SB), $0
	JEQ     cr_ref
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
	CONV_TILES

cr_ref:
	JMP ·convRowF64Ref(SB)

// func HeadF64(dst, x, wT, b []float64, rows, cols int, relu bool)
//
// Without AVX it tail-calls headF64Ref, which has the same frame.
TEXT ·HeadF64(SB), NOSPLIT, $0-113
	CMPB ·useAVX(SB), $0
	JEQ  hd_ref
	JMP  ·headF64AVX(SB)

hd_ref:
	JMP ·headF64Ref(SB)

// func headF64AVX(dst, x, wT, b []float64, rows, cols int, relu bool)
TEXT ·headF64AVX(SB), NOSPLIT, $144-113
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ wT_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ rows+96(FP), R8
	MOVQ cols+104(FP), R9
	HEAD_BODY

#undef VMOVUP
#undef VBCAST
#undef VMULP
#undef VADDP
#undef VCMPP
#undef VANDNP
#undef VMAXP
#undef VMASKMOVP
#undef VXORP
#undef VMOVS
#undef VUCOMIS
#undef SZ
#undef SH
#undef LANES
#undef TILE
#undef MASK8

// float32: eight lanes per YMM, 64-output head tiles. MASK8 splits one
// 8-lane compare's bits into the two nibbles the f64 form produces.
#define VMOVUP VMOVUPS
#define VBCAST VBROADCASTSS
#define VMULP VMULPS
#define VADDP VADDPS
#define VCMPP VCMPPS
#define VANDNP VANDNPS
#define VMAXP VMAXPS
#define VMASKMOVP VMASKMOVPS
#define VXORP VXORPS
#define VMOVS VMOVSS
#define VUCOMIS VUCOMISS
#define SZ 4
#define SH 2
#define LANES 8
#define TILE 64
#define MASK8 \
	VCMPPS    $4, (SI)(CX*4), Y15, Y0; \
	VMOVMSKPS Y0, AX; \
	MOVQ      AX, R10; \
	SHRQ      $4, R10; \
	ANDQ      $15, AX

// func ConvRowF32(dst, x, wT, b []float32, filters, cols int, fold bool)
//
// Full tiles run in pairs while 16 filters remain, tile A in Y0 and
// tile B in Y1, so two add chains overlap; each lane's operations are
// those of CONV_TILES, which takes the last 1..15 filters. Without AVX
// it tail-calls convRowF32Ref, which has the same frame.
TEXT ·ConvRowF32(SB), NOSPLIT, $0-113
	CMPB    ·useAVX(SB), $0
	JEQ     cr_ref
	MOVQ    dst_base+0(FP), DI
	MOVQ    x_base+24(FP), SI
	MOVQ    wT_base+48(FP), DX
	MOVQ    b_base+72(FP), BX
	MOVQ    filters+96(FP), R8
	MOVQ    cols+104(FP), R9
	MOVBQZX fold+112(FP), R10

	MOVQ   R8, R11
	SHLQ   $2, R11       // column stride in bytes
	MOVQ   R9, R13
	ANDQ   $-2, R13      // pair limit
	VXORPS Y15, Y15, Y15 // ReLU compare operand

cr_two:
	CMPQ    R8, $16
	JLT     cr_tiles
	MOVQ    DX, AX
	XORQ    CX, CX
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1

cr_tpair:
	CMPQ         CX, R13
	JGE          cr_trem
	VBROADCASTSS (SI)(CX*4), Y4
	VBROADCASTSS 4(SI)(CX*4), Y5
	VMULPS       (AX), Y4, Y8
	VMULPS       (AX)(R11*1), Y5, Y9
	VADDPS       Y9, Y8, Y8 // p0+p1, tile A
	VADDPS       Y8, Y0, Y0
	VMULPS       32(AX), Y4, Y10
	VMULPS       32(AX)(R11*1), Y5, Y11
	VADDPS       Y11, Y10, Y10 // p0+p1, tile B
	VADDPS       Y10, Y1, Y1
	LEAQ         (AX)(R11*2), AX
	ADDQ         $2, CX
	JMP          cr_tpair

cr_trem:
	CMPQ         CX, R9
	JGE          cr_trelu
	VBROADCASTSS (SI)(CX*4), Y4
	VMULPS       (AX), Y4, Y8
	VADDPS       Y8, Y0, Y0
	VMULPS       32(AX), Y4, Y10
	VADDPS       Y10, Y1, Y1

cr_trelu:
	VCMPPS  $2, Y15, Y0, Y6 // v <= 0
	VANDNPS Y0, Y6, Y0
	VCMPPS  $2, Y15, Y1, Y7
	VANDNPS Y1, Y7, Y1
	TESTQ   R10, R10
	JZ      cr_tstore
	VMAXPS  (DI), Y0, Y0    // v > old ? v : old
	VMAXPS  32(DI), Y1, Y1

cr_tstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	ADDQ    $64, DX
	SUBQ    $16, R8
	JMP     cr_two

cr_tiles:
	CONV_TILES

cr_ref:
	JMP ·convRowF32Ref(SB)

// func HeadF32(dst, x, wT, b []float32, rows, cols int, relu bool)
//
// Without AVX it tail-calls headF32Ref, which has the same frame.
TEXT ·HeadF32(SB), NOSPLIT, $0-113
	CMPB ·useAVX(SB), $0
	JEQ  hd_ref
	JMP  ·headF32AVX(SB)

hd_ref:
	JMP ·headF32Ref(SB)

// func headF32AVX(dst, x, wT, b []float32, rows, cols int, relu bool)
TEXT ·headF32AVX(SB), NOSPLIT, $144-113
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ wT_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ rows+96(FP), R8
	MOVQ cols+104(FP), R9
	HEAD_BODY

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
