//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the strip kernels (kernels.go) at two strip widths:
// the 4-word strip, 32 int8 lanes, in one YMM register (the *YMM
// functions, bound at LaneWidth 4 and 8), and the one-word strip, the
// paper's 8-frame memory word, in the low quadword of one XMM register
// (the *XMM functions, bound at LaneWidth 1 and 2). Each SWAR lane
// helper becomes one or a few byte-lane instructions. The loops walk
// the same offset tables in the same canonical edge order as the Go
// kernels, so every lane value, min tie-break and saturation is the
// generic kernels' (kernels_test.go diffs them word for word).
//
// Strips are indexed by word: BX is the strip's first word sb, and
// edge e's words of the strip are at base + (off[e] + sb)·8. The
// callers pass nsw as a positive multiple of the strip width, and
// every offset plus nsw stays inside the message, posterior and done
// slices.
//
// Each kernel's body is one macro, written once and instantiated at
// both widths under these names:
//
//	V0–V15       the vector registers, Y0–Y15 or X0–X15
//	VMOV         load or store one strip: VMOVDQU, or VMOVQ
//	FILL(x, v)   spread the quadword in x over the strip v
//	STEP         the strip width in words, 4 or 1
//
// The one-word bodies never address memory with a vector operand: a
// 128-bit operand would read the next edge's word, and past the end of
// a slice at its last word. VMOVQ loads zero the upper quadword, and
// FILL leaves it zero in the constants, so VPTEST's carry flag reports
// on the one word alone.
//
// A macro body cannot hold // comments (they would swallow the line
// continuation), so its notes are /* */ comments.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX          // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// CN_STRIPS runs check nodes rows[0:len-1]: check i's edges are
// [rows[i], rows[i+1]). It reads each edge's v→c words from SI at the
// word offset in its read-table entry, and writes the edge's c→v words
// to DI at the word offset WRIDX leaves in AX. Entry: SI the v→c
// source, DI msg, R10 done, R13 the read table, R11 rows, R12
// len(rows), R9 nsw, X12 Num, X11 the shift count, X10 0xFF>>Shift per
// lane. The steady-state pass reads and writes msg through cnOff, so
// SI = DI and WRIDX is empty. The first pass reads the channel words,
// qw, through vnOff; its WRIDX loads the edge's cnOff entry, R14 bytes
// on from its vnOff entry.
//
// Pass 1 keeps the sign parity in bit 7 of V0, min1 in V2, min2 in V3
// and min1's edge index in V1; V4 counts edges. The scale runs in
// 16-bit words: every byte product min·Num is ≤ 255, so none carries
// into its neighbour, and the mask clears the bits the shift brings
// down from the high byte. Pass 2 emits min1 or, at min1's own edge,
// min2, signed by the extrinsic parity; OR-ing in 1 keeps VPSIGNB's
// sign source nonzero, so it negates or keeps and never zeroes. Each
// edge's v→c word is read before its c→v word is stored. A strip with
// a frozen lane blends its old message words back in.
#define CN_STRIPS \
	DECQ R12                             /* check count */; \
	JLE  cnRet; \
	TESTQ R9, R9; \
	JLE  cnRet; \
	MOVQ $-1, AX; \
	MOVQ AX, X15; \
	FILL(X15, V15)                       /* all-ones */; \
	MOVQ $0x0101010101010101, AX; \
	MOVQ AX, X14; \
	FILL(X14, V14)                       /* +1 per lane */; \
	MOVQ $0x7f7f7f7f7f7f7f7f, AX; \
	MOVQ AX, X13; \
	FILL(X13, V13)                       /* +127: above any magnitude */; \
	VPBROADCASTW X12, V12                /* Num per 16-bit word */; \
	FILL(X10, V10); \
cnCheck: \
	MOVLQSX (R11), AX; \
	MOVLQSX 4(R11), DX; \
	LEAQ (R13)(AX*4), R8                 /* first read-table entry of the check */; \
	LEAQ (R13)(DX*4), DX                 /* end of the check's entries */; \
	CMPQ R8, DX; \
	JEQ  cnNext; \
	XORQ BX, BX; \
cnStrip: \
	VMOV    (R10)(BX*8), V9              /* done mask of the strip */; \
	VPTEST  V15, V9                      /* CF: every lane frozen */; \
	JCS     cnSkip; \
	VPXOR   V0, V0, V0; \
	VPXOR   V1, V1, V1; \
	VMOVDQU V13, V2; \
	VMOVDQU V13, V3; \
	VPXOR   V4, V4, V4; \
	MOVQ    R8, CX; \
cnPass1: \
	MOVLQSX   (CX), AX; \
	ADDQ      BX, AX; \
	VMOV      (SI)(AX*8), V5; \
	VPXOR     V5, V0, V0; \
	VPABSB    V5, V6                     /* m = |x| */; \
	VPCMPGTB  V6, V2, V7                 /* lt = m < min1 */; \
	VPMAXSB   V6, V2, V8                 /* the round's loser competes for min2 */; \
	VPMINSB   V6, V2, V2; \
	VPBLENDVB V7, V4, V1, V1             /* minIdx = lt ? idx : minIdx */; \
	VPMINSB   V8, V3, V3; \
	VPADDB    V14, V4, V4; \
	ADDQ      $4, CX; \
	CMPQ      CX, DX; \
	JNE       cnPass1; \
	VPMULLW V12, V2, V2; \
	VPSRLW  X11, V2, V2; \
	VPAND   V10, V2, V2; \
	VPMULLW V12, V3, V3; \
	VPSRLW  X11, V3, V3; \
	VPAND   V10, V3, V3; \
	VPXOR  V4, V4, V4; \
	MOVQ   R8, CX; \
	VPTEST V9, V9                        /* ZF: no frozen lane in the strip */; \
	JNE    cnPass2Frozen; \
cnPass2: \
	MOVLQSX   (CX), AX; \
	ADDQ      BX, AX; \
	VPCMPEQB  V4, V1, V6; \
	VPBLENDVB V6, V3, V2, V7; \
	VMOV      (SI)(AX*8), V5; \
	VPXOR     V5, V0, V5; \
	VPOR      V14, V5, V5; \
	VPSIGNB   V5, V7, V7; \
	WRIDX; \
	VMOV      V7, (DI)(AX*8); \
	VPADDB    V14, V4, V4; \
	ADDQ      $4, CX; \
	CMPQ      CX, DX; \
	JNE       cnPass2; \
	JMP       cnSkip; \
cnPass2Frozen: \
	MOVLQSX   (CX), AX; \
	ADDQ      BX, AX; \
	VPCMPEQB  V4, V1, V6; \
	VPBLENDVB V6, V3, V2, V7; \
	VMOV      (SI)(AX*8), V5; \
	VPXOR     V5, V0, V5; \
	VPOR      V14, V5, V5; \
	VPSIGNB   V5, V7, V7; \
	WRIDX; \
	VMOV      (DI)(AX*8), V8; \
	VPBLENDVB V9, V8, V7, V7             /* frozen lanes keep their message */; \
	VMOV      V7, (DI)(AX*8); \
	VPADDB    V14, V4, V4; \
	ADDQ      $4, CX; \
	CMPQ      CX, DX; \
	JNE       cnPass2Frozen; \
cnSkip: \
	ADDQ $STEP, BX; \
	CMPQ BX, R9; \
	JLT  cnStrip; \
cnNext: \
	ADDQ $4, R11; \
	DECQ R12; \
	JNZ  cnCheck; \
cnRet: \
	VZEROUPPER; \
	RET

// BN_STRIPS runs bit nodes cols[0:len-1]: node j's incoming edges are
// bnOff[cols[j]:cols[j+1]]; qw and postw start at the first node's
// words, tw words per node. Entry: R8 qw, R9 postw, SI msg, R10 done,
// R13 bnOff, R11 cols, AX len(cols), CX tw, R14 nsw, X14 Max per lane;
// the frame holds the locals nodes and tw.
//
// The posterior is the channel word plus every incoming c→v message;
// each outgoing v→c message, stored over the edge's c→v word, is the
// posterior minus the edge's own input, clamped to [−Max, +Max]. A
// strip with a frozen lane takes a loop of its own that blends the old
// posterior and message words back in, so a live strip pays one
// VPTEST for it.
#define BN_STRIPS \
	MOVQ CX, tw-16(SP); \
	DECQ AX                              /* node count */; \
	JLE  bnRet; \
	MOVQ AX, nodes-8(SP); \
	TESTQ R14, R14; \
	JLE  bnRet; \
	MOVQ   $-1, AX; \
	MOVQ   AX, X15; \
	FILL(X15, V15)                       /* all-ones */; \
	FILL(X14, V14)                       /* +Max per lane */; \
	VPXOR  V13, V13, V13; \
	VPSUBB V14, V13, V13                 /* −Max per lane */; \
bnNode: \
	MOVLQSX (R11), AX; \
	MOVLQSX 4(R11), DX; \
	LEAQ    (R13)(AX*4), R12             /* first bnOff entry of the node */; \
	LEAQ    (R13)(DX*4), DX              /* end of the node's entries */; \
	XORQ    BX, BX; \
bnStrip: \
	VMOV   (R10)(BX*8), V9; \
	VPTEST V15, V9                       /* CF: every lane frozen */; \
	JCS    bnSkip; \
	VMOV   (R8)(BX*8), V0; \
	MOVQ   R12, CX; \
	CMPQ   CX, DX; \
	JEQ    bnPost; \
bnSum: \
	MOVLQSX (CX), AX; \
	ADDQ    BX, AX; \
	VMOV    (SI)(AX*8), V2; \
	VPADDB  V2, V0, V0; \
	ADDQ    $4, CX; \
	CMPQ    CX, DX; \
	JNE     bnSum; \
bnPost: \
	MOVQ   R12, CX; \
	VPTEST V9, V9                        /* ZF: no frozen lane in the strip */; \
	JNE    bnPostFrozen; \
	VMOV   V0, (R9)(BX*8); \
	CMPQ   CX, DX; \
	JEQ    bnSkip; \
bnOut: \
	MOVLQSX (CX), AX; \
	ADDQ    BX, AX; \
	VMOV    (SI)(AX*8), V2; \
	VPSUBB  V2, V0, V1; \
	VPMINSB V14, V1, V1; \
	VPMAXSB V13, V1, V1; \
	VMOV    V1, (SI)(AX*8); \
	ADDQ    $4, CX; \
	CMPQ    CX, DX; \
	JNE     bnOut; \
	JMP     bnSkip; \
bnPostFrozen: \
	VMOV      (R9)(BX*8), V3; \
	VPBLENDVB V9, V3, V0, V3             /* frozen lanes keep their posterior */; \
	VMOV      V3, (R9)(BX*8); \
	CMPQ      CX, DX; \
	JEQ       bnSkip; \
bnOutFrozen: \
	MOVLQSX   (CX), AX; \
	ADDQ      BX, AX; \
	VMOV      (SI)(AX*8), V2; \
	VPSUBB    V2, V0, V1; \
	VPMINSB   V14, V1, V1; \
	VPMAXSB   V13, V1, V1; \
	VPBLENDVB V9, V2, V1, V1             /* and their message */; \
	VMOV      V1, (SI)(AX*8); \
	ADDQ      $4, CX; \
	CMPQ      CX, DX; \
	JNE       bnOutFrozen; \
bnSkip: \
	ADDQ $STEP, BX; \
	CMPQ BX, R14; \
	JLT  bnStrip; \
	ADDQ $4, R11; \
	MOVQ tw-16(SP), AX; \
	LEAQ (R8)(AX*8), R8; \
	LEAQ (R9)(AX*8), R9; \
	DECQ nodes-8(SP); \
	JNZ  bnNode; \
bnRet: \
	VZEROUPPER; \
	RET

// UNSAT_STRIPS ORs the syndrome MSBs of check nodes rows[0:len-1] per
// word into out[0:nsw], which holds those of the checks before them
// (zero before the first). A strip whose lanes are all known
// unsatisfied or frozen is left as it is; otherwise it stops at the
// first check after which they are. Entry: SI postw, R10 done, R13
// vnOff, R11 rows, R12 len(rows), R9 nsw, DI out.
#define UNSAT_STRIPS \
	TESTQ R9, R9; \
	JLE  unsatRet; \
	DECQ R12                             /* check count */; \
	JLE  unsatRet; \
	LEAQ (R11)(R12*4), R12               /* end of the check rows */; \
	MOVQ $0x8080808080808080, AX; \
	MOVQ AX, X14; \
	FILL(X14, V14)                       /* bit 7 of every lane */; \
	XORQ BX, BX; \
unsatStrip: \
	VMOV    (DI)(BX*8), V0               /* syndrome accumulator */; \
	VMOV    (R10)(BX*8), V9; \
	VPOR    V9, V0, V2; \
	VPTEST  V14, V2                      /* CF: every lane unsatisfied or frozen */; \
	JCS     unsatNext; \
	MOVQ    R11, R8; \
unsatCheck: \
	MOVLQSX (R8), AX; \
	MOVLQSX 4(R8), DX; \
	LEAQ    (R13)(AX*4), CX; \
	LEAQ    (R13)(DX*4), DX; \
	VPXOR   V1, V1, V1                   /* parity of the check's posterior signs */; \
	CMPQ    CX, DX; \
	JEQ     unsatAcc; \
unsatEdge: \
	MOVLQSX (CX), AX; \
	ADDQ    BX, AX; \
	VMOV    (SI)(AX*8), V3; \
	VPXOR   V3, V1, V1; \
	ADDQ    $4, CX; \
	CMPQ    CX, DX; \
	JNE     unsatEdge; \
unsatAcc: \
	VPOR   V1, V0, V0; \
	VPOR   V9, V0, V2; \
	VPTEST V14, V2                       /* CF: every lane unsatisfied or frozen */; \
	JCS    unsatStore; \
	ADDQ   $4, R8; \
	CMPQ   R8, R12; \
	JNE    unsatCheck; \
unsatStore: \
	VPAND V14, V0, V0; \
	VMOV  V0, (DI)(BX*8); \
unsatNext: \
	ADDQ $STEP, BX; \
	CMPQ BX, R9; \
	JLT  unsatStrip; \
unsatRet: \
	VZEROUPPER; \
	RET

// The 4-word strip: one YMM register.

#define V0 Y0
#define V1 Y1
#define V2 Y2
#define V3 Y3
#define V4 Y4
#define V5 Y5
#define V6 Y6
#define V7 Y7
#define V8 Y8
#define V9 Y9
#define V10 Y10
#define V12 Y12
#define V13 Y13
#define V14 Y14
#define V15 Y15
#define VMOV VMOVDQU
#define FILL(x, v) VPBROADCASTQ x, v
#define STEP 4

// The steady-state CN reads and writes msg through cnOff: WRIDX is
// empty.
#define WRIDX

// func cnYMM(msg, done []uint64, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)
TEXT ·cnYMM(SB), NOSPLIT, $0-128
	MOVQ msg_base+0(FP), SI
	MOVQ SI, DI
	MOVQ done_base+24(FP), R10
	MOVQ cnOff_base+48(FP), R13
	MOVQ rows_base+72(FP), R11
	MOVQ rows_len+80(FP), R12
	MOVQ nsw+96(FP), R9
	MOVQ num+104(FP), X12
	MOVQ shift+112(FP), X11
	MOVQ shiftMask+120(FP), X10
	CN_STRIPS

#undef WRIDX

// The first pass reads qw through vnOff and finds each edge's write
// offset in cnOff: R14 = &cnOff[0] − &vnOff[0].
#define WRIDX MOVLQSX (CX)(R14*1), AX; ADDQ BX, AX

// func cnFirstYMM(qw, msg, done []uint64, vnOff, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)
TEXT ·cnFirstYMM(SB), NOSPLIT, $0-176
	MOVQ qw_base+0(FP), SI
	MOVQ msg_base+24(FP), DI
	MOVQ done_base+48(FP), R10
	MOVQ vnOff_base+72(FP), R13
	MOVQ cnOff_base+96(FP), R14
	SUBQ R13, R14
	MOVQ rows_base+120(FP), R11
	MOVQ rows_len+128(FP), R12
	MOVQ nsw+144(FP), R9
	MOVQ num+152(FP), X12
	MOVQ shift+160(FP), X11
	MOVQ shiftMask+168(FP), X10
	CN_STRIPS

#undef WRIDX

// func bnYMM(qw, postw, msg, done []uint64, bnOff, cols []int32, tw, nsw int, maxVec uint64)
TEXT ·bnYMM(SB), NOSPLIT, $16-168
	MOVQ qw_base+0(FP), R8
	MOVQ postw_base+24(FP), R9
	MOVQ msg_base+48(FP), SI
	MOVQ done_base+72(FP), R10
	MOVQ bnOff_base+96(FP), R13
	MOVQ cols_base+120(FP), R11
	MOVQ cols_len+128(FP), AX
	MOVQ tw+144(FP), CX
	MOVQ nsw+152(FP), R14
	MOVQ maxVec+160(FP), X14
	BN_STRIPS

// func unsatYMM(postw, done []uint64, vnOff, rows []int32, nsw int, out []uint64)
TEXT ·unsatYMM(SB), NOSPLIT, $0-128
	MOVQ postw_base+0(FP), SI
	MOVQ done_base+24(FP), R10
	MOVQ vnOff_base+48(FP), R13
	MOVQ rows_base+72(FP), R11
	MOVQ rows_len+80(FP), R12
	MOVQ nsw+96(FP), R9
	MOVQ out_base+104(FP), DI
	UNSAT_STRIPS

#undef V0
#undef V1
#undef V2
#undef V3
#undef V4
#undef V5
#undef V6
#undef V7
#undef V8
#undef V9
#undef V10
#undef V12
#undef V13
#undef V14
#undef V15
#undef VMOV
#undef FILL
#undef STEP

// The one-word strip: the low quadword of one XMM register. MOVQ into
// an X register already zeroes the upper quadword, so FILL is empty.

#define V0 X0
#define V1 X1
#define V2 X2
#define V3 X3
#define V4 X4
#define V5 X5
#define V6 X6
#define V7 X7
#define V8 X8
#define V9 X9
#define V10 X10
#define V12 X12
#define V13 X13
#define V14 X14
#define V15 X15
#define VMOV VMOVQ
#define FILL(x, v)
#define STEP 1

// The steady-state CN reads and writes msg through cnOff: WRIDX is
// empty.
#define WRIDX

// func cnXMM(msg, done []uint64, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)
TEXT ·cnXMM(SB), NOSPLIT, $0-128
	MOVQ msg_base+0(FP), SI
	MOVQ SI, DI
	MOVQ done_base+24(FP), R10
	MOVQ cnOff_base+48(FP), R13
	MOVQ rows_base+72(FP), R11
	MOVQ rows_len+80(FP), R12
	MOVQ nsw+96(FP), R9
	MOVQ num+104(FP), X12
	MOVQ shift+112(FP), X11
	MOVQ shiftMask+120(FP), X10
	CN_STRIPS

#undef WRIDX

// The first pass reads qw through vnOff and finds each edge's write
// offset in cnOff: R14 = &cnOff[0] − &vnOff[0].
#define WRIDX MOVLQSX (CX)(R14*1), AX; ADDQ BX, AX

// func cnFirstXMM(qw, msg, done []uint64, vnOff, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)
TEXT ·cnFirstXMM(SB), NOSPLIT, $0-176
	MOVQ qw_base+0(FP), SI
	MOVQ msg_base+24(FP), DI
	MOVQ done_base+48(FP), R10
	MOVQ vnOff_base+72(FP), R13
	MOVQ cnOff_base+96(FP), R14
	SUBQ R13, R14
	MOVQ rows_base+120(FP), R11
	MOVQ rows_len+128(FP), R12
	MOVQ nsw+144(FP), R9
	MOVQ num+152(FP), X12
	MOVQ shift+160(FP), X11
	MOVQ shiftMask+168(FP), X10
	CN_STRIPS

#undef WRIDX

// func bnXMM(qw, postw, msg, done []uint64, bnOff, cols []int32, tw, nsw int, maxVec uint64)
TEXT ·bnXMM(SB), NOSPLIT, $16-168
	MOVQ qw_base+0(FP), R8
	MOVQ postw_base+24(FP), R9
	MOVQ msg_base+48(FP), SI
	MOVQ done_base+72(FP), R10
	MOVQ bnOff_base+96(FP), R13
	MOVQ cols_base+120(FP), R11
	MOVQ cols_len+128(FP), AX
	MOVQ tw+144(FP), CX
	MOVQ nsw+152(FP), R14
	MOVQ maxVec+160(FP), X14
	BN_STRIPS

// func unsatXMM(postw, done []uint64, vnOff, rows []int32, nsw int, out []uint64)
TEXT ·unsatXMM(SB), NOSPLIT, $0-128
	MOVQ postw_base+0(FP), SI
	MOVQ done_base+24(FP), R10
	MOVQ vnOff_base+48(FP), R13
	MOVQ rows_base+72(FP), R11
	MOVQ rows_len+80(FP), R12
	MOVQ nsw+96(FP), R9
	MOVQ out_base+104(FP), DI
	UNSAT_STRIPS
