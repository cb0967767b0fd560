#include "textflag.h"

// The two passes of scanCompact (ingest.go) over a compact frames body.
// checkRowsAVX2 checks the rows' shape and counts their tokens, 62 bytes
// per step; classifyAVX2 marks the structural bytes of the rows kept, so
// their tokens can be cut without another byte loop. A mask holds bit i
// for byte i of a 64-byte block. Signed byte compares give the digits: a
// byte >= 0x80 is negative, so it is never above '0'-1.

// SPLAT stores 32 copies of one byte (v repeats it 8 times) at cls<>+off.
#define SPLAT(off, v) DATA cls<>+off(SB)/8, v; DATA cls<>+off+8(SB)/8, v; DATA cls<>+off+16(SB)/8, v; DATA cls<>+off+24(SB)/8, v

SPLAT(0, $0x2c2c2c2c2c2c2c2c)   // ','
SPLAT(32, $0x5b5b5b5b5b5b5b5b)  // '['
SPLAT(64, $0x5d5d5d5d5d5d5d5d)  // ']'
SPLAT(96, $0x2e2e2e2e2e2e2e2e)  // '.'
SPLAT(128, $0x3030303030303030) // '0'
SPLAT(160, $0x2f2f2f2f2f2f2f2f) // '0'-1
SPLAT(192, $0x3a3a3a3a3a3a3a3a) // '9'+1
GLOBL cls<>(SB), RODATA|NOPTR, $224

// MASK sets dst to the 64-bit mask of the block's two halves' bytes set
// in Y2 (low half) and Y3 (high half).
#define MASK(dst, tmp) \
	VPMOVMSKB Y2, dst; \
	VPMOVMSKB Y3, tmp; \
	SHLQ      $32, tmp; \
	ORQ       tmp, dst

// EQ sets dst to the mask of the block's bytes equal to the byte splat in
// register c.
#define EQ(c, dst, tmp) \
	VPCMPEQB c, Y0, Y2; \
	VPCMPEQB c, Y1, Y3; \
	MASK(dst, tmp)

// func checkRowsAVX2(st *rowState, b []byte, valid uint64, d1 int) (bad uint64)
//
// Checks the blocks b[62k : 62k+64] that b holds whole. Bits 0 and 1 of a
// block are context, the two bytes before the 62 it checks, so every rule
// looks back at most two bytes within the block and nothing is carried
// from block to block but the row state. It returns the bytes of the
// first block that breaks a rule, masked by valid, or non-zero for a row
// that does not hold d1+1 tokens; 0 when every block holds. st carries
// the row state from call to call.
//
// Masks: C ']', M ',', O '[', D digit, T '.', Z '0'; after ']' a comma is
// a row comma R, else a token comma K; S = M|O (what a token follows).
TEXT ·checkRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ b_base+8(FP), SI
	MOVQ b_len+16(FP), R8
	LEAQ -64(SI)(R8*1), R8 // the last block's start
	MOVQ st+0(FP), AX
	MOVQ 0(AX), R9         // K so far, less d1 per row ended
	MOVQ 8(AX), R10        // rows ended
	MOVQ d1+40(FP), R11
	XORL DX, DX
	CMPQ SI, R8
	JHI  done
	VMOVDQU cls<>+0(SB), Y8
	VMOVDQU cls<>+32(SB), Y9
	VMOVDQU cls<>+64(SB), Y10
	VMOVDQU cls<>+96(SB), Y11
	VMOVDQU cls<>+128(SB), Y12
	VMOVDQU cls<>+160(SB), Y13
	VMOVDQU cls<>+192(SB), Y14

block:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	EQ(Y10, R14, AX)          // C
	EQ(Y8, R15, AX)           // M
	LEAQ (R14)(R14*1), AX     // after ']'
	MOVQ R15, CX
	ANDQ AX, CX               // R
	XORQ CX, AX
	MOVQ AX, DX               // after ']' comes ','
	XORQ CX, R15              // K
	EQ(Y9, R12, AX)           // O
	LEAQ (CX)(CX*1), AX
	XORQ R12, AX
	ORQ  AX, DX               // '[' comes after R, and nowhere else
	ORQ  R15, CX
	ORQ  R12, CX              // S
	VPCMPGTB Y13, Y0, Y2
	VPCMPGTB Y0, Y14, Y4
	VPAND    Y4, Y2, Y2
	VPCMPGTB Y13, Y1, Y3
	VPCMPGTB Y1, Y14, Y5
	VPAND    Y5, Y3, Y3
	MASK(BX, AX)              // D
	MOVQ BX, AX
	ORQ  R12, AX
	NOTQ AX                   // neither digit nor '['
	EQ(Y11, R13, R12)         // T
	MOVQ CX, R12
	ORQ  R13, R12             // S|T
	MOVQ R12, DI
	ORQ  R14, DI
	NOTQ DI
	ANDQ AX, DI
	ORQ  DI, DX               // every byte is a digit, ',', '[', ']' or '.'
	ADDQ R12, R12
	ANDQ AX, R12
	ORQ  R12, DX              // after ',', '[' or '.' comes a digit or '['
	LEAQ (BX)(BX*1), AX
	ANDQ BX, AX
	SHLQ $2, CX               // S two bytes back
	ANDQ CX, AX
	ORQ  AX, DX               // a token's first digit is not followed by a digit
	EQ(Y12, DI, AX)           // Z
	LEAQ (DI)(DI*1), AX
	ANDQ CX, AX
	NOTQ AX
	ANDQ R13, AX
	ORQ  AX, DX               // '.' follows a token's leading '0'
	ANDQ valid+32(FP), DX

	// Rows: at each ']' the K since the row began must be d1. Most blocks
	// hold at most one ']' and take it without a branch on where it lies.
	ANDQ $-4, R14
	ANDQ $-4, R15
	LEAQ -1(R14), AX
	TESTQ R14, AX
	JNZ  many
	ANDQ R15, AX
	POPCNTQ AX, AX            // K before the ']', or all of them
	ADDQ R9, AX
	XORQ R11, AX
	MOVQ R14, CX
	NEGQ CX
	SBBQ CX, CX               // all ones when the block holds a ']'
	ANDQ CX, AX
	ORQ  AX, DX
	JNZ  fail
	SUBQ CX, R10
	ANDQ R11, CX
	SUBQ CX, R9
	POPCNTQ R15, AX
	ADDQ AX, R9

next:
	ADDQ $62, SI
	CMPQ SI, R8
	JLS  block

done:
	VZEROUPPER
	MOVQ st+0(FP), AX
	MOVQ R9, 0(AX)
	MOVQ R10, 8(AX)
	MOVQ $0, bad+48(FP)
	RET

many:
	TESTQ DX, DX
	JNZ  fail

row:
	MOVQ R14, AX
	NEGQ AX
	ANDQ R14, AX
	DECQ AX                   // below this ']'
	ANDQ R15, AX
	POPCNTQ AX, AX
	ADDQ R9, AX
	CMPQ AX, R11
	JNE  rowfail
	SUBQ R11, R9
	INCQ R10
	LEAQ -1(R14), AX
	ANDQ AX, R14
	JNZ  row
	POPCNTQ R15, AX
	ADDQ AX, R9
	JMP  next

rowfail:
	MOVQ $1, DX

fail:
	VZEROUPPER
	MOVQ DX, bad+48(FP)
	RET

// func classifyAVX2(m []uint64, b []byte)
//
// Sets m[k] to the mask of the bytes ',', '[' and ']' in b[64k : 64k+64]
// for every k < len(m); b holds at least 64*len(m) bytes.
TEXT ·classifyAVX2(SB), NOSPLIT, $0-48
	MOVQ    m_base+0(FP), DI
	MOVQ    m_len+8(FP), CX
	MOVQ    b_base+24(FP), SI
	TESTQ   CX, CX
	JZ      cdone
	VMOVDQU cls<>+0(SB), Y8
	VMOVDQU cls<>+32(SB), Y9
	VMOVDQU cls<>+64(SB), Y10

cblock:
	VMOVDQU  (SI), Y0
	VMOVDQU  32(SI), Y1
	VPCMPEQB Y8, Y0, Y2
	VPCMPEQB Y9, Y0, Y4
	VPOR     Y4, Y2, Y2
	VPCMPEQB Y10, Y0, Y4
	VPOR     Y4, Y2, Y2
	VPCMPEQB Y8, Y1, Y3
	VPCMPEQB Y9, Y1, Y5
	VPOR     Y5, Y3, Y3
	VPCMPEQB Y10, Y1, Y5
	VPOR     Y5, Y3, Y3
	MASK(AX, BX)
	MOVQ     AX, (DI)
	ADDQ     $8, DI
	ADDQ     $64, SI
	DECQ     CX
	JNZ      cblock
	VZEROUPPER

cdone:
	RET
