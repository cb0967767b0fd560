#include "textflag.h"

// AVX2 kernels behind kernel.go. Every lane takes exactly the IEEE
// operations of the scalar Go code, in its order: products are rounded
// before they are added unless the scalar code fuses them too (math.Exp's
// FMA path, mirrored op for op below), and nothing is summed across lanes.

// ROW stores four copies of v at kc<>+off, so packed instructions can take
// any constant as a 256-bit memory operand.
#define ROW(off, v) DATA kc<>+off(SB)/8, v; DATA kc<>+off+8(SB)/8, v; DATA kc<>+off+16(SB)/8, v; DATA kc<>+off+24(SB)/8, v

// math.Exp's constants (src/math/exp_amd64.s).
ROW(0, $1.4426950408889634073599246810018920)             // LOG2E
ROW(32, $0.69314718055966295651160180568695068359375)     // LN2U
ROW(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
ROW(96, $0.0625)
ROW(128, $2.4801587301587301587e-5)
ROW(160, $1.9841269841269841270e-4)
ROW(192, $1.3888888888888888889e-3)
ROW(224, $8.3333333333333333333e-3)
ROW(256, $4.1666666666666666667e-2)
ROW(288, $1.6666666666666666667e-1)
ROW(320, $0.5)
ROW(352, $1.0)
ROW(384, $2.0)
ROW(416, $1023)                // exponent bias, int64 lanes
ROW(448, $0x8000000000000000) // sign bit
ROW(480, $0x7fffffffffffffff) // all but the sign bit
// Range limits: exp's argument stays in [-708, 708], where its exponent
// needs neither the subnormal nor the overflow path.
ROW(512, $-708.0) // Sigmoid: -|x| >= -708
ROW(544, $354.0)  // Tanh: |x| <= 354, so exp(2|x|) is in range
// math.tanh's branch points and rational approximation (src/math/tanh.go).
ROW(576, $0.625)
ROW(608, $4.4014845965556527147994e+01) // 0.5*MAXLOG
ROW(640, $-9.64399179425052238628e-1)
ROW(672, $-9.92877231001918586564e1)
ROW(704, $-1.61468768441708447952e3)
ROW(736, $1.12811678491632931402e2)
ROW(768, $2.23548839060100448583e3)
ROW(800, $4.84406305325125486048e3)
GLOBL kc<>(SB), RODATA, $832

#define LOG2E kc<>+0(SB)
#define LN2U kc<>+32(SB)
#define LN2L kc<>+64(SB)
#define SIXTEENTH kc<>+96(SB)
#define ONE kc<>+352(SB)
#define TWO kc<>+384(SB)
#define BIAS kc<>+416(SB)
#define SIGN kc<>+448(SB)
#define ABS kc<>+480(SB)
#define SIGLO kc<>+512(SB)
#define TANHHI kc<>+544(SB)
#define TANHMID kc<>+576(SB)
#define TANHSAT kc<>+608(SB)

// Comparison predicates for VCMPPD (ordered: false on NaN).
#define EQ 0x00
#define LT 0x11
#define LE 0x12
#define GE 0x1d
#define GT 0x1e

// EXP sets Y0 = exp(Y0) per lane exactly as math.Exp's FMA path does
// (src/math/exp_amd64.s, label avxfma), for arguments in [-708, 708].
// Clobbers Y1 and Y2.
#define EXP \
	VMULPD       LOG2E, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      kc<>+128(SB), Y1; \
	VFMADD213PD  kc<>+160(SB), Y0, Y1; \
	VFMADD213PD  kc<>+192(SB), Y0, Y1; \
	VFMADD213PD  kc<>+224(SB), Y0, Y1; \
	VFMADD213PD  kc<>+256(SB), Y0, Y1; \
	VFMADD213PD  kc<>+288(SB), Y0, Y1; \
	VFMADD213PD  kc<>+320(SB), Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	VPMOVSXDQ    X2, Y2; \
	VPADDQ       BIAS, Y2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// CHUNKS loads dst, src and len(src) and counts AX over the whole chunks of
// four; a kernel jumps to done with AX values written.
#define CHUNKS \
	MOVQ   dst_base+0(FP), DI; \
	MOVQ   src_base+24(FP), SI; \
	MOVQ   src_len+32(FP), CX; \
	XORQ   AX, AX; \
	VXORPD Y7, Y7, Y7

// func exp4(x *[4]float64)
TEXT ·exp4(SB), NOSPLIT, $0-8
	MOVQ    x+0(FP), DI
	VMOVUPD (DI), Y0
	EXP
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src []float64) int
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	CHUNKS

sigloop:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       sigdone
	VMOVUPD   (SI)(AX*8), Y4 // x
	VORPD     SIGN, Y4, Y0   // -|x|
	VCMPPD    $GE, SIGLO, Y0, Y5
	VMOVMSKPD Y5, DX
	CMPQ      DX, $15
	JNE       sigdone
	EXP                      // z = exp(-|x|)
	VCMPPD    $GE, Y7, Y4, Y5
	VBLENDVPD Y5, ONE, Y0, Y1 // x >= 0 ? 1 : z
	VADDPD    ONE, Y0, Y0     // 1 + z
	VDIVPD    Y0, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       sigloop

sigdone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func tanhAVX2(dst, src []float64) int
//
// All three branches of math.tanh are computed, then blended by |x|.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	CHUNKS

tanhloop:
	LEAQ      4(AX), DX
	CMPQ      DX, CX
	JGT       tanhdone
	VMOVUPD   (SI)(AX*8), Y4 // x
	VANDPD    ABS, Y4, Y6    // z = |x|
	VCMPPD    $LE, TANHHI, Y6, Y5
	VMOVMSKPD Y5, DX
	CMPQ      DX, $15
	JNE       tanhdone
	VMULPD    TWO, Y6, Y0 // 2z
	EXP                   // s = exp(2z)
	VADDPD    ONE, Y0, Y0
	VMOVUPD   TWO, Y1
	VDIVPD    Y0, Y1, Y1
	VMOVUPD   ONE, Y0
	VSUBPD    Y1, Y0, Y0  // mid = 1 - 2/(s+1)
	VANDPD    SIGN, Y4, Y3
	VXORPD    Y3, Y0, Y0  // -mid where x < 0
	VORPD     ONE, Y3, Y3 // sat = ±1 with x's sign

	// small = x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2), s = x*x
	VMULPD Y4, Y4, Y1
	VMULPD kc<>+640(SB), Y1, Y2
	VADDPD kc<>+672(SB), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD kc<>+704(SB), Y2, Y2
	VADDPD kc<>+736(SB), Y1, Y8
	VMULPD Y1, Y8, Y8
	VADDPD kc<>+768(SB), Y8, Y8
	VMULPD Y1, Y8, Y8
	VADDPD kc<>+800(SB), Y8, Y8
	VMULPD Y1, Y4, Y1
	VMULPD Y2, Y1, Y1
	VDIVPD Y8, Y1, Y1
	VADDPD Y1, Y4, Y1

	VCMPPD    $EQ, Y7, Y4, Y5
	VBLENDVPD Y5, Y4, Y1, Y1 // ±0 is returned as is
	VCMPPD    $GE, TANHMID, Y6, Y5
	VBLENDVPD Y5, Y0, Y1, Y1
	VCMPPD    $GT, TANHSAT, Y6, Y5
	VBLENDVPD Y5, Y3, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       tanhloop

tanhdone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func matVecPackedAVX2(dst, wp, x []float64)
//
// Four blocks of four rows at a time, one accumulator lane per row, so each
// broadcast x[i] feeds sixteen rows; then the remaining blocks one by one.
TEXT ·matVecPackedAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ wp_base+24(FP), SI
	MOVQ x_base+48(FP), BX
	MOVQ x_len+56(FP), DX
	MOVQ DX, R8
	SHLQ $5, R8         // bytes per block
	LEAQ (R8)(R8*2), R9 // bytes per three blocks
	SHRQ $2, CX         // blocks

quad:
	CMPQ   CX, $4
	JLT    single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

quadcol:
	CMPQ         AX, DX
	JGE          quadstore
	VBROADCASTSD (BX)(AX*8), Y4
	VMULPD       (SI), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       (SI)(R8*1), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       (SI)(R8*2), Y4, Y8
	VADDPD       Y8, Y2, Y2
	VMULPD       (SI)(R9*1), Y4, Y9
	VADDPD       Y9, Y3, Y3
	ADDQ         $32, SI
	INCQ         AX
	JMP          quadcol

quadstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    R9, SI
	SUBQ    $4, CX
	JMP     quad

single:
	TESTQ  CX, CX
	JEQ    done
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

singlecol:
	CMPQ         AX, DX
	JGE          singlestore
	VBROADCASTSD (BX)(AX*8), Y4
	VMULPD       (SI), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $32, SI
	INCQ         AX
	JMP          singlecol

singlestore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JMP     single

done:
	VZEROUPPER
	RET

// BACKROW loads the next row's da at R9, skips the row when it is ±0 (all
// bits but the sign clear) and otherwise broadcasts it into Y0.
#define BACKROW(skip) \
	MOVQ         (R9), CX; \
	SHLQ         $1, CX; \
	JEQ          skip; \
	VBROADCASTSD (R9), Y0

// XACC adds da*w for the four columns at off in the row's block of w (AX)
// to acc, the product rounded first.
#define XACC(off, t, acc) \
	VMULPD off(AX), Y0, t; \
	VADDPD t, acc, acc

// func backRowsXAVX2(w, da, dx []float64)
//
// BackRowsX's columns [0, len(dx)&^3) in blocks of 32, then one each of 24,
// 16, 8 and 4 as they fit: a block's dx stays in registers while every row
// passes over it in order, so each column's sum is one chain, and a wide
// block keeps enough chains in flight to cover the add latency.
//
// SI, R11: the block's first column in w and dx; DX: vector columns left;
// R8: bytes per row; BX, R12: da and its end. Per row: R9 in da, AX the
// row's block in w.
TEXT ·backRowsXAVX2(SB), NOSPLIT, $0-72
	MOVQ w_base+0(FP), SI
	MOVQ da_base+24(FP), BX
	MOVQ da_len+32(FP), R12
	MOVQ dx_base+48(FP), R11
	MOVQ dx_len+56(FP), DX
	MOVQ DX, R8
	SHLQ $3, R8           // bytes per row
	ANDQ $-4, DX          // vector columns
	LEAQ (BX)(R12*8), R12 // end of da

x32:
	CMPQ    DX, $32
	JLT     x24
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VMOVUPD 64(R11), Y10
	VMOVUPD 96(R11), Y11
	VMOVUPD 128(R11), Y12
	VMOVUPD 160(R11), Y13
	VMOVUPD 192(R11), Y14
	VMOVUPD 224(R11), Y15
	MOVQ    BX, R9
	MOVQ    SI, AX

x32row:
	CMPQ R9, R12
	JEQ  x32store
	BACKROW(x32next)
	XACC(0, Y1, Y8)
	XACC(32, Y2, Y9)
	XACC(64, Y3, Y10)
	XACC(96, Y4, Y11)
	XACC(128, Y5, Y12)
	XACC(160, Y6, Y13)
	XACC(192, Y7, Y14)
	XACC(224, Y1, Y15)

x32next:
	ADDQ $8, R9
	ADDQ R8, AX
	JMP  x32row

x32store:
	VMOVUPD Y8, (R11)
	VMOVUPD Y9, 32(R11)
	VMOVUPD Y10, 64(R11)
	VMOVUPD Y11, 96(R11)
	VMOVUPD Y12, 128(R11)
	VMOVUPD Y13, 160(R11)
	VMOVUPD Y14, 192(R11)
	VMOVUPD Y15, 224(R11)
	ADDQ    $256, SI
	ADDQ    $256, R11
	SUBQ    $32, DX
	JMP     x32

x24:
	CMPQ    DX, $24
	JLT     x16
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VMOVUPD 64(R11), Y10
	VMOVUPD 96(R11), Y11
	VMOVUPD 128(R11), Y12
	VMOVUPD 160(R11), Y13
	MOVQ    BX, R9
	MOVQ    SI, AX

x24row:
	CMPQ R9, R12
	JEQ  x24store
	BACKROW(x24next)
	XACC(0, Y1, Y8)
	XACC(32, Y2, Y9)
	XACC(64, Y3, Y10)
	XACC(96, Y4, Y11)
	XACC(128, Y5, Y12)
	XACC(160, Y6, Y13)

x24next:
	ADDQ $8, R9
	ADDQ R8, AX
	JMP  x24row

x24store:
	VMOVUPD Y8, (R11)
	VMOVUPD Y9, 32(R11)
	VMOVUPD Y10, 64(R11)
	VMOVUPD Y11, 96(R11)
	VMOVUPD Y12, 128(R11)
	VMOVUPD Y13, 160(R11)
	ADDQ    $192, SI
	ADDQ    $192, R11
	SUBQ    $24, DX

x16:
	CMPQ    DX, $16
	JLT     x8
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VMOVUPD 64(R11), Y10
	VMOVUPD 96(R11), Y11
	MOVQ    BX, R9
	MOVQ    SI, AX

x16row:
	CMPQ R9, R12
	JEQ  x16store
	BACKROW(x16next)
	XACC(0, Y1, Y8)
	XACC(32, Y2, Y9)
	XACC(64, Y3, Y10)
	XACC(96, Y4, Y11)

x16next:
	ADDQ $8, R9
	ADDQ R8, AX
	JMP  x16row

x16store:
	VMOVUPD Y8, (R11)
	VMOVUPD Y9, 32(R11)
	VMOVUPD Y10, 64(R11)
	VMOVUPD Y11, 96(R11)
	ADDQ    $128, SI
	ADDQ    $128, R11
	SUBQ    $16, DX

x8:
	CMPQ    DX, $8
	JLT     x4
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	MOVQ    BX, R9
	MOVQ    SI, AX

x8row:
	CMPQ R9, R12
	JEQ  x8store
	BACKROW(x8next)
	XACC(0, Y1, Y8)
	XACC(32, Y2, Y9)

x8next:
	ADDQ $8, R9
	ADDQ R8, AX
	JMP  x8row

x8store:
	VMOVUPD Y8, (R11)
	VMOVUPD Y9, 32(R11)
	ADDQ    $64, SI
	ADDQ    $64, R11
	SUBQ    $8, DX

x4:
	TESTQ   DX, DX
	JEQ     xdone
	VMOVUPD (R11), Y8
	MOVQ    BX, R9
	MOVQ    SI, AX

x4row:
	CMPQ R9, R12
	JEQ  x4store
	BACKROW(x4next)
	XACC(0, Y1, Y8)

x4next:
	ADDQ $8, R9
	ADDQ R8, AX
	JMP  x4row

x4store:
	VMOVUPD Y8, (R11)

xdone:
	VZEROUPPER
	RET

// GLOAD and GSTORE move the four rows of a tile's column chunk at off
// (R9: the tile's first row; R8: bytes per row; DX: its third row)
// between g and four accumulators.
#define GLOAD(off, a0, a1, a2, a3) \
	VMOVUPD off(R9), a0; \
	VMOVUPD off(R9)(R8*1), a1; \
	VMOVUPD off(DX), a2; \
	VMOVUPD off(DX)(R8*1), a3

#define GSTORE(off, a0, a1, a2, a3) \
	VMOVUPD a0, off(R9); \
	VMOVUPD a1, off(R9)(R8*1); \
	VMOVUPD a2, off(DX); \
	VMOVUPD a3, off(DX)(R8*1)

// GTILE points R9 at the tile's first row in g (DI plus the column offset
// R10) and DX at its third.
#define GTILE \
	LEAQ (DI)(R10*1), R9; \
	LEAQ (R9)(R8*2), DX

// GPAIR points R9 at das[p][lo+row] and DX at xs[p][col] for the pair
// whose slice headers AX and BX address.
#define GPAIR \
	MOVQ (AX), R9; \
	ADDQ R13, R9; \
	MOVQ (BX), DX; \
	ADDQ R10, DX

// GTEST jumps to slow when any of the tile's four da (at R9) is ±0: those
// rows are skipped one by one there. Y2 holds zeros; NaN compares unequal,
// so a NaN row is not skipped.
#define GTEST(slow) \
	VMOVUPD   (R9), Y3; \
	VCMPPD    $EQ, Y2, Y3, Y3; \
	VMOVMSKPD Y3, CX; \
	TESTL     CX, CX; \
	JNE       slow

// GSKIP jumps to skip when the da at off(R9) is ±0.
#define GSKIP(off, skip) \
	MOVQ off(R9), CX; \
	SHLQ $1, CX; \
	JEQ  skip

// GROW3, GROW2 and GROW1 add da (the row's at off(R9), broadcast) times
// the pair's 12, 8 or 4 columns of x (DX) to the row's accumulators, each
// product rounded first.
#define GROW3(off, a0, a1, a2) \
	VBROADCASTSD off(R9), Y0; \
	VMULPD       (DX), Y0, Y1; \
	VADDPD       Y1, a0, a0; \
	VMULPD       32(DX), Y0, Y3; \
	VADDPD       Y3, a1, a1; \
	VMULPD       64(DX), Y0, Y1; \
	VADDPD       Y1, a2, a2

#define GROW2(off, a0, a1) \
	VBROADCASTSD off(R9), Y0; \
	VMULPD       (DX), Y0, Y1; \
	VADDPD       Y1, a0, a0; \
	VMULPD       32(DX), Y0, Y3; \
	VADDPD       Y3, a1, a1

#define GROW1(off, a0) \
	VBROADCASTSD off(R9), Y0; \
	VMULPD       (DX), Y0, Y1; \
	VADDPD       Y1, a0, a0

// GNEXT advances AX and BX to the next pair's slice headers.
#define GNEXT \
	ADDQ $24, AX; \
	ADDQ $24, BX

// GADVANCE moves DI and R13 to the next tile of four rows.
#define GADVANCE \
	LEAQ (DI)(R8*4), DI; \
	ADDQ $32, R13

// func backRowsGAVX2(g []float64, n, lo int, das, xs [][]float64)
//
// BackRowsG's rows [0, rows&^3) of g and columns [0, n&^3), in tiles of
// four rows by twelve columns (then eight, then four): the tile's sums
// stay in registers while every pair passes over it in order, so each
// element takes the pairs' additions in order and g is read and written
// once per tile, not once per pair. A pair whose four da are all non-zero
// (the common case, one vector compare) takes the tile's rows straight;
// otherwise each row is tested and a ±0 one skipped.
//
// DI: the tile's first row in g; SI: the end of g's last whole tile;
// R8: bytes per row; R10: the column block's byte offset; R11: vector
// columns in bytes; R13: the tile's first row's byte offset in das[p].
// Per pair: AX and BX the slice headers of das[p] and xs[p], R12 the end
// of das; R9 and DX das[p] and xs[p] at the tile, CX the zero test.
TEXT ·backRowsGAVX2(SB), NOSPLIT, $0-88

// GSTART resets the tile walk to g's first row for a new column block;
// GPAIRS points AX and BX at the first pair's slice headers.
#define GSTART \
	MOVQ g_base+0(FP), DI; \
	MOVQ lo+32(FP), R13; \
	SHLQ $3, R13

#define GPAIRS \
	MOVQ das_base+40(FP), AX; \
	MOVQ xs_base+64(FP), BX

	MOVQ   g_len+8(FP), AX
	MOVQ   n+24(FP), R8
	XORQ   DX, DX
	DIVQ   R8                // AX = rows
	ANDQ   $-4, AX           // rows in whole tiles
	IMULQ  R8, AX
	SHLQ   $3, AX
	MOVQ   g_base+0(FP), SI
	ADDQ   AX, SI            // end of the whole tiles
	MOVQ   R8, R11
	ANDQ   $-4, R11
	SHLQ   $3, R11           // vector columns, bytes
	SHLQ   $3, R8            // bytes per row
	MOVQ   das_len+48(FP), R12
	LEAQ   (R12)(R12*2), R12
	SHLQ   $3, R12
	ADDQ   das_base+40(FP), R12 // end of das
	XORQ   R10, R10
	VXORPD Y2, Y2, Y2

gcol:
	MOVQ R11, CX
	SUBQ R10, CX
	CMPQ CX, $12*8
	JLT  gcol8
	GSTART

g12tile:
	CMPQ DI, SI
	JEQ  g12next
	GTILE
	GLOAD(0, Y4, Y7, Y10, Y13)
	GLOAD(32, Y5, Y8, Y11, Y14)
	GLOAD(64, Y6, Y9, Y12, Y15)
	GPAIRS

g12pair:
	CMPQ AX, R12
	JEQ  g12store
	GPAIR
	GTEST(g12slow)
	GROW3(0, Y4, Y5, Y6)
	GROW3(8, Y7, Y8, Y9)
	GROW3(16, Y10, Y11, Y12)
	GROW3(24, Y13, Y14, Y15)

g12next_pair:
	GNEXT
	JMP g12pair

g12slow:
	GSKIP(0, g12s1)
	GROW3(0, Y4, Y5, Y6)

g12s1:
	GSKIP(8, g12s2)
	GROW3(8, Y7, Y8, Y9)

g12s2:
	GSKIP(16, g12s3)
	GROW3(16, Y10, Y11, Y12)

g12s3:
	GSKIP(24, g12next_pair)
	GROW3(24, Y13, Y14, Y15)
	JMP g12next_pair

g12store:
	GTILE
	GSTORE(0, Y4, Y7, Y10, Y13)
	GSTORE(32, Y5, Y8, Y11, Y14)
	GSTORE(64, Y6, Y9, Y12, Y15)
	GADVANCE
	JMP g12tile

g12next:
	ADDQ $96, R10
	JMP  gcol

gcol8:
	CMPQ CX, $8*8
	JLT  gcol4
	GSTART

g8tile:
	CMPQ DI, SI
	JEQ  g8next
	GTILE
	GLOAD(0, Y4, Y6, Y8, Y10)
	GLOAD(32, Y5, Y7, Y9, Y11)
	GPAIRS

g8pair:
	CMPQ AX, R12
	JEQ  g8store
	GPAIR
	GTEST(g8slow)
	GROW2(0, Y4, Y5)
	GROW2(8, Y6, Y7)
	GROW2(16, Y8, Y9)
	GROW2(24, Y10, Y11)

g8next_pair:
	GNEXT
	JMP g8pair

g8slow:
	GSKIP(0, g8s1)
	GROW2(0, Y4, Y5)

g8s1:
	GSKIP(8, g8s2)
	GROW2(8, Y6, Y7)

g8s2:
	GSKIP(16, g8s3)
	GROW2(16, Y8, Y9)

g8s3:
	GSKIP(24, g8next_pair)
	GROW2(24, Y10, Y11)
	JMP g8next_pair

g8store:
	GTILE
	GSTORE(0, Y4, Y6, Y8, Y10)
	GSTORE(32, Y5, Y7, Y9, Y11)
	GADVANCE
	JMP g8tile

g8next:
	ADDQ $64, R10
	JMP  gcol

gcol4:
	TESTQ CX, CX
	JEQ   gdone
	GSTART

g4tile:
	CMPQ DI, SI
	JEQ  gdone
	GTILE
	GLOAD(0, Y4, Y5, Y6, Y7)
	GPAIRS

g4pair:
	CMPQ AX, R12
	JEQ  g4store
	GPAIR
	GTEST(g4slow)
	GROW1(0, Y4)
	GROW1(8, Y5)
	GROW1(16, Y6)
	GROW1(24, Y7)

g4next_pair:
	GNEXT
	JMP g4pair

g4slow:
	GSKIP(0, g4s1)
	GROW1(0, Y4)

g4s1:
	GSKIP(8, g4s2)
	GROW1(8, Y5)

g4s2:
	GSKIP(16, g4s3)
	GROW1(16, Y6)

g4s3:
	GSKIP(24, g4next_pair)
	GROW1(24, Y7)
	JMP g4next_pair

g4store:
	GTILE
	GSTORE(0, Y4, Y5, Y6, Y7)
	GADVANCE
	JMP g4tile

gdone:
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, s *AdamStep)
//
// AdamUpdate's elements [0, len(w)&^3), four at a time, each lane taking
// the scalar loop's IEEE operations in its order (mul, add, div and sqrt
// are correctly rounded, so a lane equals the scalar value). The clamp
// blends in clip where g > clip, then -clip where g < -clip, both ordered
// compares, so NaN passes through as in the scalar comparisons.
//
// DI, SI, DX, BX: w, g, m, v; CX: elements left; R8: 1 when clip > 0.
// Y15..Y8: β1, 1-β1, β2, 1-β2, c1, c2, lr, eps; Y7, Y6: clip, -clip;
// Y5: zeros.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), DX
	MOVQ         v_base+72(FP), BX
	MOVQ         s+96(FP), AX
	ANDQ         $-4, CX
	VBROADCASTSD 0(AX), Y15
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 24(AX), Y12
	VBROADCASTSD 32(AX), Y11
	VBROADCASTSD 40(AX), Y10
	VBROADCASTSD 48(AX), Y9
	VBROADCASTSD 56(AX), Y8
	VBROADCASTSD 64(AX), Y7
	VXORPD       Y5, Y5, Y5
	VSUBPD       Y7, Y5, Y6
	XORQ         R8, R8
	UCOMISD      X5, X7
	JBE          adamloop // clip <= 0 or NaN: no clamp
	MOVQ         $1, R8

adamloop:
	TESTQ   CX, CX
	JEQ     adamdone
	VMOVUPD (SI), Y0
	TESTQ   R8, R8
	JEQ     adammoments
	VCMPPD    $GT, Y7, Y0, Y1
	VBLENDVPD Y1, Y7, Y0, Y0
	VCMPPD    $LT, Y6, Y0, Y1
	VBLENDVPD Y1, Y6, Y0, Y0

adammoments:
	VMULPD  (DX), Y15, Y1 // β1*m
	VMULPD  Y0, Y14, Y2   // (1-β1)*g
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DX)
	VMULPD  Y0, Y12, Y2   // (1-β2)*g
	VMULPD  Y0, Y2, Y2    // ((1-β2)*g)*g
	VMULPD  (BX), Y13, Y3 // β2*v
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (BX)
	VDIVPD  Y11, Y1, Y1   // mHat = m/c1
	VDIVPD  Y10, Y3, Y3   // vHat = v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y8, Y3, Y3    // sqrt(vHat)+eps
	VMULPD  Y1, Y9, Y1    // lr*mHat
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y4
	VSUBPD  Y1, Y4, Y4
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     adamloop

adamdone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
