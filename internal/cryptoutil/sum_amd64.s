// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.

// block is blockSHANI from Go's crypto/internal/fips140/sha256
// (sha256block_amd64.s) cut to exactly one 64-byte block, with its VEX
// moves turned into SSE ones (VMOVDQU → MOVOU, VMOVDQA → MOVO), so that it
// needs only SHA, SSSE3 and SSE4.1. K256 holds each round constant once
// (Go's table repeats every 16-byte group for its AVX2 kernel), so the
// round offsets are half of Go's. The four message words are loaded before
// the rounds rather than between them, so that the rounds are one macro
// that nodeBlock, which builds its block in registers, shares. Reference:
// S. Gulley et al., "New Instructions Supporting the Secure Hash Algorithm
// on Intel® Architecture Processors", July 2013.

//go:build amd64 && !purego

#include "textflag.h"

// RNDS4 runs four rounds on the message words in m plus the round
// constants at k(AX); RNDS4S also advances the schedule of next by
// SHA256MSG2 over m and prev, interleaved as in Go's kernel.
#define RNDS4(k, m) \
	MOVO        m, X0; \
	PADDD       k(AX), X0; \
	SHA256RNDS2 X0, X1, X2; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, X2, X1

#define RNDS4S(k, m, prev, next) \
	MOVO        m, X0; \
	PADDD       k(AX), X0; \
	SHA256RNDS2 X0, X1, X2; \
	MOVO        m, X7; \
	PALIGNR     $0x04, prev, X7; \
	PADDD       X7, next; \
	SHA256MSG2  m, next; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, X2, X1

// ROUNDS is the 64 rounds of one compression, shared by block and
// nodeBlock. In: the state as ABEF in X1 and CDGH in X2, the block's
// message words (byte-swapped) in X3–X6, K256 in AX. Out: the state
// before the feed-forward addition in X1 and X2. Clobbers X0 and X3–X7.
#define ROUNDS \
	RNDS4(0, X3); \
	RNDS4(16, X4); SHA256MSG1 X4, X3; \
	RNDS4(32, X5); SHA256MSG1 X5, X4; \
	RNDS4S(48, X6, X5, X3); SHA256MSG1 X6, X5; \
	RNDS4S(64, X3, X6, X4); SHA256MSG1 X3, X6; \
	RNDS4S(80, X4, X3, X5); SHA256MSG1 X4, X3; \
	RNDS4S(96, X5, X4, X6); SHA256MSG1 X5, X4; \
	RNDS4S(112, X6, X5, X3); SHA256MSG1 X6, X5; \
	RNDS4S(128, X3, X6, X4); SHA256MSG1 X3, X6; \
	RNDS4S(144, X4, X3, X5); SHA256MSG1 X4, X3; \
	RNDS4S(160, X5, X4, X6); SHA256MSG1 X5, X4; \
	RNDS4S(176, X6, X5, X3); SHA256MSG1 X6, X5; \
	RNDS4S(192, X3, X6, X4); SHA256MSG1 X3, X6; \
	RNDS4S(208, X4, X3, X5); \
	RNDS4S(224, X5, X4, X6); \
	RNDS4(240, X6)

// func block(h *[8]uint32, p *[64]byte)
// Requires: SHA, SSE2, SSE4.1, SSSE3
TEXT ·block(SB), NOSPLIT, $0-16
	MOVQ    h+0(FP), DI
	MOVQ    p+8(FP), SI
	MOVOU   (DI), X1
	MOVOU   16(DI), X2
	PSHUFD  $0xb1, X1, X1
	PSHUFD  $0x1b, X2, X2
	MOVO    X1, X7
	PALIGNR $0x08, X2, X1
	PBLENDW $0xf0, X7, X2
	MOVOU   flip_mask<>+0(SB), X8
	LEAQ    K256<>+0(SB), AX

	// save hash values for addition after rounds
	MOVO X1, X9
	MOVO X2, X10

	MOVOU  (SI), X3
	MOVOU  16(SI), X4
	MOVOU  32(SI), X5
	MOVOU  48(SI), X6
	PSHUFB X8, X3
	PSHUFB X8, X4
	PSHUFB X8, X5
	PSHUFB X8, X6
	ROUNDS

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	// write hash values back in the correct order
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)
	RET

// func nodeBlock(out, l, r *Hash)
// Requires: SHA, SSE2, SSE4.1, SSSE3
//
// The node preimage 0x01 ‖ l ‖ r (41 bytes) and its padding are one block,
// built in registers from two overlapping 16-byte loads per child — bytes
// 0–15 and 4–19, never past byte 20 — shifted into place and merged with
// the domain byte and the 0x80 terminator; the last 16 bytes, zeros and the
// bit length 328, are a constant already in message-word order. Nothing
// passes through memory between the loads and the 20-byte store, so the
// compressions of sibling nodes overlap in the CPU.
TEXT ·nodeBlock(SB), NOSPLIT, $0-24
	MOVQ  out+0(FP), DI
	MOVQ  l+8(FP), SI
	MOVQ  r+16(FP), DX
	MOVOU (SI), X3
	MOVOU 4(SI), X4
	MOVOU (DX), X5
	MOVOU 4(DX), X6
	MOVOU flip_mask<>+0(SB), X8
	LEAQ  K256<>+0(SB), AX

	// block[0:16] = 0x01 ‖ l[0:15]
	PSLLO $1, X3
	POR   node_domain<>+0(SB), X3

	// block[16:32] = l[15:20] ‖ r[0:11]
	MOVO  X5, X7
	PSLLO $5, X7
	PSRLO $11, X4
	POR   X7, X4

	// block[32:48] = r[11:20] ‖ 0x80 ‖ 0…
	PSRLO $7, X6
	POR   node_pad<>+0(SB), X6
	MOVO  X6, X5

	MOVOU  node_len<>+0(SB), X6
	PSHUFB X8, X3
	PSHUFB X8, X4
	PSHUFB X8, X5
	MOVOU  iv_abef<>+0(SB), X1
	MOVOU  iv_cdgh<>+0(SB), X2
	ROUNDS
	PADDD  iv_abef<>+0(SB), X1
	PADDD  iv_cdgh<>+0(SB), X2

	// out = big-endian a, b, c, d (16 bytes), then e (4 bytes)
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PSHUFB  X8, X1
	PSHUFB  X8, X7
	MOVOU   X1, (DI)
	PEXTRD  $2, X7, 16(DI)
	RET

// func cpuid(leaf uint32, sub uint32) (eax uint32, ebx uint32, ecx uint32, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// The IV (FIPS 180-4 §5.3.3) arranged as the kernel keeps the state:
// ABEF holds f, e, b, a and CDGH holds h, g, d, c, lowest lane first.
DATA iv_abef<>+0(SB)/4, $0x9b05688c
DATA iv_abef<>+4(SB)/4, $0x510e527f
DATA iv_abef<>+8(SB)/4, $0xbb67ae85
DATA iv_abef<>+12(SB)/4, $0x6a09e667
GLOBL iv_abef<>(SB), RODATA|NOPTR, $16

DATA iv_cdgh<>+0(SB)/4, $0x5be0cd19
DATA iv_cdgh<>+4(SB)/4, $0x1f83d9ab
DATA iv_cdgh<>+8(SB)/4, $0xa54ff53a
DATA iv_cdgh<>+12(SB)/4, $0x3c6ef372
GLOBL iv_cdgh<>(SB), RODATA|NOPTR, $16

// A node block's fixed bytes: the domain byte 0x01 at byte 0, the 0x80
// terminator at byte 41 (byte 9 of the third 16 bytes), and the bit length
// 41·8 = 328 as message word 15.
DATA node_domain<>+0(SB)/8, $0x01
DATA node_domain<>+8(SB)/8, $0
GLOBL node_domain<>(SB), RODATA|NOPTR, $16

DATA node_pad<>+0(SB)/8, $0
DATA node_pad<>+8(SB)/8, $0x8000
GLOBL node_pad<>(SB), RODATA|NOPTR, $16

DATA node_len<>+0(SB)/8, $0
DATA node_len<>+8(SB)/8, $0x0000014800000000
GLOBL node_len<>(SB), RODATA|NOPTR, $16

DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA|NOPTR, $16

DATA K256<>+0(SB)/4, $0x428a2f98
DATA K256<>+4(SB)/4, $0x71374491
DATA K256<>+8(SB)/4, $0xb5c0fbcf
DATA K256<>+12(SB)/4, $0xe9b5dba5
DATA K256<>+16(SB)/4, $0x3956c25b
DATA K256<>+20(SB)/4, $0x59f111f1
DATA K256<>+24(SB)/4, $0x923f82a4
DATA K256<>+28(SB)/4, $0xab1c5ed5
DATA K256<>+32(SB)/4, $0xd807aa98
DATA K256<>+36(SB)/4, $0x12835b01
DATA K256<>+40(SB)/4, $0x243185be
DATA K256<>+44(SB)/4, $0x550c7dc3
DATA K256<>+48(SB)/4, $0x72be5d74
DATA K256<>+52(SB)/4, $0x80deb1fe
DATA K256<>+56(SB)/4, $0x9bdc06a7
DATA K256<>+60(SB)/4, $0xc19bf174
DATA K256<>+64(SB)/4, $0xe49b69c1
DATA K256<>+68(SB)/4, $0xefbe4786
DATA K256<>+72(SB)/4, $0x0fc19dc6
DATA K256<>+76(SB)/4, $0x240ca1cc
DATA K256<>+80(SB)/4, $0x2de92c6f
DATA K256<>+84(SB)/4, $0x4a7484aa
DATA K256<>+88(SB)/4, $0x5cb0a9dc
DATA K256<>+92(SB)/4, $0x76f988da
DATA K256<>+96(SB)/4, $0x983e5152
DATA K256<>+100(SB)/4, $0xa831c66d
DATA K256<>+104(SB)/4, $0xb00327c8
DATA K256<>+108(SB)/4, $0xbf597fc7
DATA K256<>+112(SB)/4, $0xc6e00bf3
DATA K256<>+116(SB)/4, $0xd5a79147
DATA K256<>+120(SB)/4, $0x06ca6351
DATA K256<>+124(SB)/4, $0x14292967
DATA K256<>+128(SB)/4, $0x27b70a85
DATA K256<>+132(SB)/4, $0x2e1b2138
DATA K256<>+136(SB)/4, $0x4d2c6dfc
DATA K256<>+140(SB)/4, $0x53380d13
DATA K256<>+144(SB)/4, $0x650a7354
DATA K256<>+148(SB)/4, $0x766a0abb
DATA K256<>+152(SB)/4, $0x81c2c92e
DATA K256<>+156(SB)/4, $0x92722c85
DATA K256<>+160(SB)/4, $0xa2bfe8a1
DATA K256<>+164(SB)/4, $0xa81a664b
DATA K256<>+168(SB)/4, $0xc24b8b70
DATA K256<>+172(SB)/4, $0xc76c51a3
DATA K256<>+176(SB)/4, $0xd192e819
DATA K256<>+180(SB)/4, $0xd6990624
DATA K256<>+184(SB)/4, $0xf40e3585
DATA K256<>+188(SB)/4, $0x106aa070
DATA K256<>+192(SB)/4, $0x19a4c116
DATA K256<>+196(SB)/4, $0x1e376c08
DATA K256<>+200(SB)/4, $0x2748774c
DATA K256<>+204(SB)/4, $0x34b0bcb5
DATA K256<>+208(SB)/4, $0x391c0cb3
DATA K256<>+212(SB)/4, $0x4ed8aa4a
DATA K256<>+216(SB)/4, $0x5b9cca4f
DATA K256<>+220(SB)/4, $0x682e6ff3
DATA K256<>+224(SB)/4, $0x748f82ee
DATA K256<>+228(SB)/4, $0x78a5636f
DATA K256<>+232(SB)/4, $0x84c87814
DATA K256<>+236(SB)/4, $0x8cc70208
DATA K256<>+240(SB)/4, $0x90befffa
DATA K256<>+244(SB)/4, $0xa4506ceb
DATA K256<>+248(SB)/4, $0xbef9a3f7
DATA K256<>+252(SB)/4, $0xc67178f2
GLOBL K256<>(SB), RODATA|NOPTR, $256
