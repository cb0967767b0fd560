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

// func backRowsAVX2(g, w, da, x, dx []float64)
//
// BackRows' columns [0, len(x)&^3), sixteen at a time and then four: a
// block's x and dx stay in registers while every row passes over it in
// order. A row whose da is ±0 (all bits but the sign clear) is skipped;
// otherwise da is broadcast and each chunk of four takes g += da*x and
// dx += da*w, products rounded first.
//
// DI, SI, R10, R11: the block's first column in g, w, x and dx; DX: vector
// columns left; R8: bytes per row; BX..R12: da. Per row: R9 in da, R13 and
// AX the row's block in g and w.
#define BACKROW(skip) \
	MOVQ         (R9), CX; \
	SHLQ         $1, CX; \
	JEQ          skip; \
	VBROADCASTSD (R9), Y0

TEXT ·backRowsAVX2(SB), NOSPLIT, $0-120
	MOVQ g_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ da_base+48(FP), BX
	MOVQ da_len+56(FP), R12
	MOVQ x_base+72(FP), R10
	MOVQ x_len+80(FP), DX
	MOVQ dx_base+96(FP), R11
	MOVQ DX, R8
	SHLQ $3, R8             // bytes per row
	ANDQ $-4, DX            // vector columns
	LEAQ (BX)(R12*8), R12   // end of da

quadblock:
	CMPQ    DX, $16
	JLT     singleblock
	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	VMOVUPD 64(R10), Y10
	VMOVUPD 96(R10), Y11
	VMOVUPD (R11), Y12
	VMOVUPD 32(R11), Y13
	VMOVUPD 64(R11), Y14
	VMOVUPD 96(R11), Y15
	MOVQ    BX, R9
	MOVQ    DI, R13
	MOVQ    SI, AX

quadrow:
	CMPQ    R9, R12
	JEQ     quadstore
	BACKROW(quadnext)
	VMULPD  Y8, Y0, Y1 // da*x
	VADDPD  (R13), Y1, Y1
	VMOVUPD Y1, (R13)
	VMULPD  Y9, Y0, Y2
	VADDPD  32(R13), Y2, Y2
	VMOVUPD Y2, 32(R13)
	VMULPD  Y10, Y0, Y3
	VADDPD  64(R13), Y3, Y3
	VMOVUPD Y3, 64(R13)
	VMULPD  Y11, Y0, Y4
	VADDPD  96(R13), Y4, Y4
	VMOVUPD Y4, 96(R13)
	VMULPD  (AX), Y0, Y5 // da*w
	VADDPD  Y5, Y12, Y12
	VMULPD  32(AX), Y0, Y6
	VADDPD  Y6, Y13, Y13
	VMULPD  64(AX), Y0, Y7
	VADDPD  Y7, Y14, Y14
	VMULPD  96(AX), Y0, Y5
	VADDPD  Y5, Y15, Y15

quadnext:
	ADDQ $8, R9
	ADDQ R8, R13
	ADDQ R8, AX
	JMP  quadrow

quadstore:
	VMOVUPD Y12, (R11)
	VMOVUPD Y13, 32(R11)
	VMOVUPD Y14, 64(R11)
	VMOVUPD Y15, 96(R11)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R10
	ADDQ    $128, R11
	SUBQ    $16, DX
	JMP     quadblock

singleblock:
	TESTQ   DX, DX
	JEQ     backdone
	VMOVUPD (R10), Y8
	VMOVUPD (R11), Y12
	MOVQ    BX, R9
	MOVQ    DI, R13
	MOVQ    SI, AX

singlerow:
	CMPQ    R9, R12
	JEQ     singlestore
	BACKROW(singlenext)
	VMULPD  Y8, Y0, Y1
	VADDPD  (R13), Y1, Y1
	VMOVUPD Y1, (R13)
	VMULPD  (AX), Y0, Y5
	VADDPD  Y5, Y12, Y12

singlenext:
	ADDQ $8, R9
	ADDQ R8, R13
	ADDQ R8, AX
	JMP  singlerow

singlestore:
	VMOVUPD Y12, (R11)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, DX
	JMP     singleblock

backdone:
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
