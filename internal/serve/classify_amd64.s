#include "textflag.h"

// The structural classifier behind scanCompact (ingest.go): one 64-byte
// block of a frames body becomes six bitmasks, bit i for byte i. Signed
// byte compares give the digits: a byte >= 0x80 is negative, so it is
// never above '0'-1.

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

// MASK stores at off(DI) the 64-bit mask of the block's two halves' bytes
// set in Y2 (low half) and Y3 (high half).
#define MASK(off) \
	VPMOVMSKB Y2, AX; \
	VPMOVMSKB Y3, BX; \
	SHLQ      $32, BX; \
	ORQ       BX, AX; \
	MOVQ      AX, off(DI)

// EQ stores at off(DI) the mask of the block's bytes equal to the byte
// splat in register c.
#define EQ(c, off) \
	VPCMPEQB c, Y0, Y2; \
	VPCMPEQB c, Y1, Y3; \
	MASK(off)

// func classifyAVX2(m []blockMasks, b []byte)
//
// Classifies len(m) blocks, b[64k:64k+64] into m[k]; b holds at least
// 64*len(m) bytes. blockMasks is {digit, comma, open, close, dot, zero}.
TEXT ·classifyAVX2(SB), NOSPLIT, $0-48
	MOVQ    m_base+0(FP), DI
	MOVQ    m_len+8(FP), CX
	MOVQ    b_base+24(FP), SI
	TESTQ   CX, CX
	JZ      done
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
	// digit: '0'-1 < x < '9'+1
	VPCMPGTB Y13, Y0, Y2
	VPCMPGTB Y0, Y14, Y4
	VPAND    Y4, Y2, Y2
	VPCMPGTB Y13, Y1, Y3
	VPCMPGTB Y1, Y14, Y5
	VPAND    Y5, Y3, Y3
	MASK(0)
	EQ(Y8, 8)
	EQ(Y9, 16)
	EQ(Y10, 24)
	EQ(Y11, 32)
	EQ(Y12, 40)
	ADDQ     $48, DI
	ADDQ     $64, SI
	DECQ     CX
	JNZ      block
	VZEROUPPER

done:
	RET
