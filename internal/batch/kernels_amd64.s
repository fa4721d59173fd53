//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the [4]uint64 strip kernels (kernels.go): one strip of
// four packed words, 32 int8 lanes, is one YMM register, and each SWAR
// lane helper becomes one or a few byte-lane instructions. The loops
// walk the same offset tables in the same canonical edge order as the
// Go kernels, so every lane value, min tie-break and saturation is the
// generic kernels' (kernels_test.go diffs them word for word).
//
// Strips are indexed by word: BX is the strip's first word sb, and
// edge e's words of the strip are at base + (off[e] + sb)·8. The
// callers pass nsw as a positive multiple of 4, and every offset plus
// nsw stays inside the message, posterior and done slices.

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

// func cnStripsAVX2(vcw, cvw, done []uint64, cnOff, rows []int32, nsw int, num, shift, shiftMask uint64)
//
// Check nodes rows[0:len-1]: check i's edges are [rows[i], rows[i+1]),
// their message words found through cnOff.
TEXT ·cnStripsAVX2(SB), NOSPLIT, $0-152
	MOVQ vcw_base+0(FP), SI
	MOVQ cvw_base+24(FP), DI
	MOVQ done_base+48(FP), R10
	MOVQ cnOff_base+72(FP), R13
	MOVQ rows_base+96(FP), R11
	MOVQ rows_len+104(FP), R12
	MOVQ nsw+120(FP), R9
	DECQ R12                     // check count
	JLE  cnRet
	TESTQ R9, R9
	JLE  cnRet

	VPCMPEQB Y15, Y15, Y15       // all-ones
	MOVQ $0x0101010101010101, AX
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14        // +1 per lane
	MOVQ $0x7f7f7f7f7f7f7f7f, AX
	MOVQ AX, X13
	VPBROADCASTQ X13, Y13        // +127 per lane: above any magnitude
	MOVQ num+128(FP), X12
	VPBROADCASTW X12, Y12        // Num per 16-bit word
	MOVQ shift+136(FP), X11      // shift count
	MOVQ shiftMask+144(FP), X10
	VPBROADCASTQ X10, Y10        // 0xFF>>Shift per lane

cnCheck:
	MOVLQSX (R11), AX
	MOVLQSX 4(R11), DX
	LEAQ (R13)(AX*4), R8         // first cnOff entry of the check
	LEAQ (R13)(DX*4), DX         // end of the check's entries
	CMPQ R8, DX
	JEQ  cnNext
	XORQ BX, BX

cnStrip:
	VMOVDQU (R10)(BX*8), Y9      // done mask of the strip
	VPTEST  Y15, Y9              // CF: every lane frozen
	JCS     cnSkip

	// Pass 1: sign parity (bit 7 of Y0), min1 (Y2), min2 (Y3) and
	// min1's edge index (Y1); Y4 counts edges.
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VMOVDQU Y13, Y2
	VMOVDQU Y13, Y3
	VPXOR   Y4, Y4, Y4
	MOVQ    R8, CX

cnPass1:
	MOVLQSX   (CX), AX
	ADDQ      BX, AX
	VMOVDQU   (SI)(AX*8), Y5
	VPXOR     Y5, Y0, Y0
	VPABSB    Y5, Y6             // m = |x|
	VPCMPGTB  Y6, Y2, Y7         // lt = m < min1
	VPMAXSB   Y6, Y2, Y8         // the round's loser competes for min2
	VPMINSB   Y6, Y2, Y2
	VPBLENDVB Y7, Y4, Y1, Y1     // minIdx = lt ? idx : minIdx
	VPMINSB   Y8, Y3, Y3
	VPADDB    Y14, Y4, Y4
	ADDQ      $4, CX
	CMPQ      CX, DX
	JNE       cnPass1

	// min·Num≫Shift & (0xFF≫Shift) in 16-bit words: every byte
	// product is ≤ 255, so none carries into its neighbour, and the
	// mask clears the bits the shift brings down from the high byte.
	VPMULLW Y12, Y2, Y2
	VPSRLW  X11, Y2, Y2
	VPAND   Y10, Y2, Y2
	VPMULLW Y12, Y3, Y3
	VPSRLW  X11, Y3, Y3
	VPAND   Y10, Y3, Y3

	// Pass 2: min1 or, at min1's own edge, min2, signed by the
	// extrinsic parity; OR-ing in 1 keeps VPSIGNB's sign source
	// nonzero, so it negates or keeps and never zeroes.
	VPXOR  Y4, Y4, Y4
	MOVQ   R8, CX
	VPTEST Y9, Y9                // ZF: no frozen lane in the strip
	JNE    cnPass2Frozen

cnPass2:
	MOVLQSX   (CX), AX
	ADDQ      BX, AX
	VPCMPEQB  Y4, Y1, Y6
	VPBLENDVB Y6, Y3, Y2, Y7
	VPXOR     (SI)(AX*8), Y0, Y5
	VPOR      Y14, Y5, Y5
	VPSIGNB   Y5, Y7, Y7
	VMOVDQU   Y7, (DI)(AX*8)
	VPADDB    Y14, Y4, Y4
	ADDQ      $4, CX
	CMPQ      CX, DX
	JNE       cnPass2
	JMP       cnSkip

cnPass2Frozen:
	MOVLQSX   (CX), AX
	ADDQ      BX, AX
	VPCMPEQB  Y4, Y1, Y6
	VPBLENDVB Y6, Y3, Y2, Y7
	VPXOR     (SI)(AX*8), Y0, Y5
	VPOR      Y14, Y5, Y5
	VPSIGNB   Y5, Y7, Y7
	VPBLENDVB Y9, (DI)(AX*8), Y7, Y7 // frozen lanes keep their message
	VMOVDQU   Y7, (DI)(AX*8)
	VPADDB    Y14, Y4, Y4
	ADDQ      $4, CX
	CMPQ      CX, DX
	JNE       cnPass2Frozen

cnSkip:
	ADDQ $4, BX
	CMPQ BX, R9
	JLT  cnStrip

cnNext:
	ADDQ $4, R11
	DECQ R12
	JNZ  cnCheck

cnRet:
	VZEROUPPER
	RET

// func bnStripsAVX2(qw, postw, vcw, cvw, done []uint64, bnOff, cols []int32, tw, nsw int, maxVec uint64)
//
// Bit nodes cols[0:len-1]: node j's incoming edges are bnOff[cols[j]:
// cols[j+1]]; qw and postw start at the first node's words, tw words
// per node.
TEXT ·bnStripsAVX2(SB), NOSPLIT, $8-192
	MOVQ qw_base+0(FP), R8
	MOVQ postw_base+24(FP), R9
	MOVQ vcw_base+48(FP), SI
	MOVQ cvw_base+72(FP), DI
	MOVQ done_base+96(FP), R10
	MOVQ bnOff_base+120(FP), R13
	MOVQ cols_base+144(FP), R11
	MOVQ cols_len+152(FP), AX
	DECQ AX                      // node count
	JLE  bnRet
	MOVQ AX, nodes-8(SP)
	CMPQ nsw+176(FP), $0
	JLE  bnRet

	VPCMPEQB     Y15, Y15, Y15   // all-ones
	MOVQ         maxVec+184(FP), X14
	VPBROADCASTQ X14, Y14        // +Max per lane
	VPXOR        Y13, Y13, Y13
	VPSUBB       Y14, Y13, Y13   // −Max per lane

bnNode:
	MOVLQSX (R11), AX
	MOVLQSX 4(R11), DX
	LEAQ    (R13)(AX*4), R12     // first bnOff entry of the node
	LEAQ    (R13)(DX*4), DX      // end of the node's entries
	XORQ    BX, BX

bnStrip:
	VMOVDQU (R10)(BX*8), Y9
	VPTEST  Y15, Y9              // CF: every lane frozen
	JCS     bnSkip

	// Posterior: channel word plus every incoming message.
	VMOVDQU (R8)(BX*8), Y0
	MOVQ    R12, CX
	CMPQ    CX, DX
	JEQ     bnPost

bnSum:
	MOVLQSX (CX), AX
	ADDQ    BX, AX
	VPADDB  (DI)(AX*8), Y0, Y0
	ADDQ    $4, CX
	CMPQ    CX, DX
	JNE     bnSum

bnPost:
	VMOVDQU Y0, (R9)(BX*8)
	MOVQ    R12, CX
	CMPQ    CX, DX
	JEQ     bnSkip

	// Each outgoing message: posterior minus the edge's own input,
	// clamped to [−Max, +Max].
bnOut:
	MOVLQSX (CX), AX
	ADDQ    BX, AX
	VPSUBB  (DI)(AX*8), Y0, Y1
	VPMINSB Y14, Y1, Y1
	VPMAXSB Y13, Y1, Y1
	VMOVDQU Y1, (SI)(AX*8)
	ADDQ    $4, CX
	CMPQ    CX, DX
	JNE     bnOut

bnSkip:
	ADDQ $4, BX
	CMPQ BX, nsw+176(FP)
	JLT  bnStrip

	ADDQ $4, R11
	MOVQ tw+168(FP), AX
	LEAQ (R8)(AX*8), R8
	LEAQ (R9)(AX*8), R9
	DECQ nodes-8(SP)
	JNZ  bnNode

bnRet:
	VZEROUPPER
	RET

// func unsatStripsAVX2(postw, done []uint64, vnOff, rows []int32, nsw int, out []uint64)
//
// ORs the syndrome MSBs of check nodes rows[0:len-1] per word into
// out[0:nsw], which holds those of the checks before them (zero before
// the first). A strip whose lanes are all known unsatisfied or frozen
// is left as it is; otherwise it stops at the first check after which
// they are.
TEXT ·unsatStripsAVX2(SB), NOSPLIT, $0-128
	MOVQ postw_base+0(FP), SI
	MOVQ done_base+24(FP), R10
	MOVQ vnOff_base+48(FP), R13
	MOVQ rows_base+72(FP), R11
	MOVQ rows_len+80(FP), R12
	MOVQ nsw+96(FP), R9
	MOVQ out_base+104(FP), DI
	TESTQ R9, R9
	JLE  unsatRet
	DECQ R12                     // check count
	JLE  unsatRet
	LEAQ (R11)(R12*4), R12       // end of the check rows

	MOVQ         $0x8080808080808080, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14        // bit 7 of every lane
	XORQ         BX, BX

unsatStrip:
	VMOVDQU (DI)(BX*8), Y0       // syndrome accumulator
	VMOVDQU (R10)(BX*8), Y9
	VPOR    Y9, Y0, Y2
	VPTEST  Y14, Y2              // CF: every lane unsatisfied or frozen
	JCS     unsatNext
	MOVQ    R11, R8

unsatCheck:
	MOVLQSX (R8), AX
	MOVLQSX 4(R8), DX
	LEAQ    (R13)(AX*4), CX
	LEAQ    (R13)(DX*4), DX
	VPXOR   Y1, Y1, Y1           // parity of the check's posterior signs
	CMPQ    CX, DX
	JEQ     unsatAcc

unsatEdge:
	MOVLQSX (CX), AX
	ADDQ    BX, AX
	VPXOR   (SI)(AX*8), Y1, Y1
	ADDQ    $4, CX
	CMPQ    CX, DX
	JNE     unsatEdge

unsatAcc:
	VPOR   Y1, Y0, Y0
	VPOR   Y9, Y0, Y2
	VPTEST Y14, Y2               // CF: every lane unsatisfied or frozen
	JCS    unsatStore
	ADDQ   $4, R8
	CMPQ   R8, R12
	JNE    unsatCheck

unsatStore:
	VPAND   Y14, Y0, Y0
	VMOVDQU Y0, (DI)(BX*8)

unsatNext:
	ADDQ    $4, BX
	CMPQ    BX, R9
	JLT     unsatStrip

unsatRet:
	VZEROUPPER
	RET
