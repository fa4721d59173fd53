// Package batch implements the software analogue of the paper's
// high-speed decoder: 8 independent frames decoded concurrently, their
// quantized messages packed as 8 int8 lanes inside one uint64 word
// (SWAR — SIMD within a register).
//
// The paper's high-speed configuration widens every message memory word
// from q bits to 8·q bits and replicates the arithmetic lanes 8×, while
// the controller, address generation and code tables stay shared
// (Fig. 3). Here the "memory word" is a uint64, the "lanes" are its 8
// bytes interpreted as int8, and the shared control structure is the
// one ldpc.Graph edge schedule driving all 8 frames at once.
//
// The decoder is a quantized normalized min-sum that is bit-compatible
// with internal/fixed at formats narrow enough for the int8 lanes
// (the high-speed Q(5,1) format in particular): decoding the same
// quantized channel LLRs through fixed.Decoder and through one lane of
// batch.Parallel produces identical hard decisions, iteration counts and
// convergence flags.
package batch

import "math/bits"

// Lanes is the number of frames packed per word, fixed by the 8×8-bit
// decomposition of a uint64 (the paper's high-speed frame count).
const Lanes = 8

// Lane-constant masks.
const (
	laneLSB uint64 = 0x0101010101010101 // bit 0 of every lane
	laneMSB uint64 = 0x8080808080808080 // bit 7 (sign) of every lane
)

// add8 is a lane-wise wrapping int8 addition: each byte of the result
// is the two's-complement sum of the corresponding bytes of a and b,
// with no carry propagation between lanes. (Carries out of bit 6 are
// computed in the masked add; bit 7 is fixed up with XOR so its carry
// never crosses a lane boundary.)
func add8(a, b uint64) uint64 {
	return (a&^laneMSB + b&^laneMSB) ^ (a^b)&laneMSB
}

// sub8 is the lane-wise wrapping int8 subtraction a − b. Borrowing is
// confined to each lane by forcing bit 7 of a high and repairing it
// afterwards.
func sub8(a, b uint64) uint64 {
	return ((a | laneMSB) - b&^laneMSB) ^ (a^^b)&laneMSB
}

// signMask8 returns 0xFF in every lane whose int8 value is negative and
// 0x00 elsewhere. The multiply broadcasts each lane's 0/1 sign bit to a
// full byte; per-lane products are ≤ 0xFF so no carries cross lanes.
func signMask8(x uint64) uint64 {
	return (x >> 7 & laneLSB) * 0xFF
}

// boolMask8 broadcasts bit 7 of every lane of x to a full 0xFF/0x00
// lane mask.
func boolMask8(x uint64) uint64 {
	return (x >> 7 & laneLSB) * 0xFF
}

// blend8 selects b in the lanes where mask is 0xFF and a elsewhere.
// mask lanes must be all-ones or all-zeros.
func blend8(a, b, mask uint64) uint64 {
	return a&^mask | b&mask
}

// abs8 returns the lane-wise absolute value of int8 lanes. The most
// negative code −128 must not appear (decoder values never reach it).
func abs8(x uint64) uint64 {
	s := signMask8(x)
	return sub8(x^s, s)
}

// neg8 returns the lane-wise negation of int8 lanes (no −128 inputs).
func neg8(x uint64) uint64 {
	return sub8(0, x)
}

// ltMask8 returns 0xFF in the lanes where int8(a) < int8(b). It is
// exact as long as the lane-wise difference a−b does not overflow int8,
// which holds for all decoder uses (|values| ≤ 127/2 on at least one
// side of every comparison the decoder performs).
func ltMask8(a, b uint64) uint64 {
	return boolMask8(sub8(a, b))
}

// min8 returns the lane-wise minimum of int8 lanes (same overflow
// precondition as ltMask8).
func min8(a, b uint64) uint64 {
	return blend8(b, a, ltMask8(a, b))
}

// eqMask8 returns 0xFF in the lanes where a and b are equal, for lane
// values with bit 7 clear (the decoder compares edge indices < 128).
func eqMask8(a, b uint64) uint64 {
	x := a ^ b
	return boolMask8(sub8(x, laneLSB) &^ x)
}

// The *Pos8 helpers below compute the same lane masks as their general
// counterparts for operands whose lanes all have bit 7 clear — the
// decoder's magnitudes (|value| ≤ 127, no −128 inputs) and edge
// indices (< 128 by validatePacked). With bit 7 free, a plain
// word-wide subtract cannot borrow across a lane boundary — per lane
// the minuend (0x80|a) ≥ 0x80 exceeds the subtrahend b ≤ 0x7F — so the
// lane-isolating repair work of sub8 drops out: about half the
// operations of the general forms. swar_test.go proves equality
// against the general helpers over every byte pair.

// ltPos8 returns 0xFF in the lanes where a < b, both bit-7-clear: bit
// 7 of (0x80|a) − b is clear exactly when a < b.
func ltPos8(a, b uint64) uint64 {
	return (laneMSB &^ ((a | laneMSB) - b)) >> 7 * 0xFF
}

// minPos8 returns the lane-wise minimum of bit-7-clear lanes.
func minPos8(a, b uint64) uint64 {
	return blend8(b, a, ltPos8(a, b))
}

// eqPos8 returns 0xFF in the lanes where a == b, both bit-7-clear: bit
// 7 of (0x80|(a^b)) − 1 is clear exactly when a == b.
func eqPos8(a, b uint64) uint64 {
	x := a ^ b
	return (laneMSB &^ ((x | laneMSB) - laneLSB)) >> 7 * 0xFF
}

// laneSigns gathers the sign bits of a packed word into one byte: bit
// f of the result is bit 7 of lane f. The multiply moves bit 8f+7 to
// bit 56+f; its partial products 8f+7+7k never share a bit position,
// so no carry reaches the top byte.
func laneSigns(x uint64) uint64 {
	return (x & laneMSB) * 0x0002040810204081 >> 56
}

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x:
// bit 8r+c moves to bit 8c+r. Three rounds swap the off-diagonal 1×1,
// 2×2 and 4×4 blocks.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// transposeBytes transposes the 8×8 byte matrix whose row r is m[r]:
// byte c of m[r] moves to byte r of m[c]. Three rounds swap the
// off-diagonal 4×4, 2×2 and 1×1 blocks.
func transposeBytes(m *[8]uint64) {
	for i := 0; i < 4; i++ {
		t := (m[i]>>32 ^ m[i+4]) & 0x00000000FFFFFFFF
		m[i] ^= t << 32
		m[i+4] ^= t
	}
	for _, i := range [4]int{0, 1, 4, 5} {
		t := (m[i]>>16 ^ m[i+2]) & 0x0000FFFF0000FFFF
		m[i] ^= t << 16
		m[i+2] ^= t
	}
	for i := 0; i < 8; i += 2 {
		t := (m[i]>>8 ^ m[i+1]) & 0x00FF00FF00FF00FF
		m[i] ^= t << 8
		m[i+1] ^= t
	}
}

// broadcast8 fills every lane with the low byte of v.
func broadcast8(v uint8) uint64 {
	return uint64(v) * laneLSB
}

// lane extracts lane f of a packed word as an int8 value.
func lane(w uint64, f int) int8 {
	return int8(w >> (8 * f))
}

// putLane overwrites lane f of w with the int8 value v.
func putLane(w uint64, f int, v int8) uint64 {
	sh := 8 * f
	return w&^(uint64(0xFF)<<sh) | uint64(uint8(v))<<sh
}

// onesCount64 is re-exported for tests of the done-mask bookkeeping.
func onesCount64(x uint64) int { return bits.OnesCount64(x) }
