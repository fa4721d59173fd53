package batch

import (
	"testing"

	"ccsdsldpc/internal/rng"
)

// pack8 builds a word from 8 int8 lane values.
func pack8(vals [Lanes]int8) uint64 {
	var w uint64
	for f, v := range vals {
		w = putLane(w, f, v)
	}
	return w
}

// unpack8 splits a word into its 8 int8 lanes.
func unpack8(w uint64) [Lanes]int8 {
	var out [Lanes]int8
	for f := range out {
		out[f] = lane(w, f)
	}
	return out
}

// randLanes draws 8 lane values in [-bound, bound].
func randLanes(r *rng.RNG, bound int) [Lanes]int8 {
	var out [Lanes]int8
	for f := range out {
		out[f] = int8(r.Intn(2*bound+1) - bound)
	}
	return out
}

func TestLaneRoundTrip(t *testing.T) {
	r := rng.New(1)
	for n := 0; n < 100; n++ {
		vals := randLanes(r, 127)
		w := pack8(vals)
		if got := unpack8(w); got != vals {
			t.Fatalf("round trip %v -> %v", vals, got)
		}
	}
}

func TestAddSub8MatchLaneArithmetic(t *testing.T) {
	r := rng.New(2)
	for n := 0; n < 10000; n++ {
		// Bounds keep per-lane sums inside int8 (the decoder's
		// invariant); wrapping semantics beyond that are exercised by
		// the full-range XOR-style identity below.
		a, b := randLanes(r, 63), randLanes(r, 63)
		wa, wb := pack8(a), pack8(b)
		sum, diff := unpack8(add8(wa, wb)), unpack8(sub8(wa, wb))
		for f := 0; f < Lanes; f++ {
			if sum[f] != a[f]+b[f] {
				t.Fatalf("add lane %d: %d+%d = %d", f, a[f], b[f], sum[f])
			}
			if diff[f] != a[f]-b[f] {
				t.Fatalf("sub lane %d: %d-%d = %d", f, a[f], b[f], diff[f])
			}
		}
	}
	// Full-range wrapping check: int8 wrap-around must stay lane-local.
	for n := 0; n < 10000; n++ {
		a, b := randLanes(r, 127), randLanes(r, 127)
		wa, wb := pack8(a), pack8(b)
		sum, diff := unpack8(add8(wa, wb)), unpack8(sub8(wa, wb))
		for f := 0; f < Lanes; f++ {
			if sum[f] != int8(int(a[f])+int(b[f])) {
				t.Fatalf("wrapping add lane %d: %d+%d = %d", f, a[f], b[f], sum[f])
			}
			if diff[f] != int8(int(a[f])-int(b[f])) {
				t.Fatalf("wrapping sub lane %d: %d-%d = %d", f, a[f], b[f], diff[f])
			}
		}
	}
}

func TestAbsNegSignMask8(t *testing.T) {
	r := rng.New(3)
	for n := 0; n < 10000; n++ {
		a := randLanes(r, 127)
		wa := pack8(a)
		abs, neg := unpack8(abs8(wa)), unpack8(neg8(wa))
		sm := signMask8(wa)
		for f := 0; f < Lanes; f++ {
			want := a[f]
			if want < 0 {
				want = -want
			}
			if abs[f] != want {
				t.Fatalf("abs lane %d: |%d| = %d", f, a[f], abs[f])
			}
			if neg[f] != -a[f] {
				t.Fatalf("neg lane %d: -%d = %d", f, a[f], neg[f])
			}
			wantMask := uint64(0)
			if a[f] < 0 {
				wantMask = 0xFF
			}
			if sm>>(8*uint(f))&0xFF != wantMask {
				t.Fatalf("signMask lane %d of %d", f, a[f])
			}
		}
	}
}

func TestLtMinMask8(t *testing.T) {
	r := rng.New(4)
	for n := 0; n < 10000; n++ {
		// ltMask8/min8 are specified for lane differences within int8;
		// magnitudes in the decoder are 0..127 on one side, 0..Max on
		// the other. Draw non-negative values like the decoder does.
		var a, b [Lanes]int8
		for f := 0; f < Lanes; f++ {
			a[f] = int8(r.Intn(128))
			b[f] = int8(r.Intn(128))
		}
		wa, wb := pack8(a), pack8(b)
		lt := ltMask8(wa, wb)
		mn := unpack8(min8(wa, wb))
		for f := 0; f < Lanes; f++ {
			wantMask := uint64(0)
			if a[f] < b[f] {
				wantMask = 0xFF
			}
			if lt>>(8*uint(f))&0xFF != wantMask {
				t.Fatalf("lt lane %d: %d < %d", f, a[f], b[f])
			}
			want := a[f]
			if b[f] < a[f] {
				want = b[f]
			}
			if mn[f] != want {
				t.Fatalf("min lane %d: min(%d,%d) = %d", f, a[f], b[f], mn[f])
			}
		}
	}
}

func TestEqMask8(t *testing.T) {
	r := rng.New(5)
	for n := 0; n < 10000; n++ {
		var a, b [Lanes]int8
		for f := 0; f < Lanes; f++ {
			a[f] = int8(r.Intn(128))
			if r.Bool() {
				b[f] = a[f]
			} else {
				b[f] = int8(r.Intn(128))
			}
		}
		wa, wb := pack8(a), pack8(b)
		eq := eqMask8(wa, wb)
		for f := 0; f < Lanes; f++ {
			wantMask := uint64(0)
			if a[f] == b[f] {
				wantMask = 0xFF
			}
			if eq>>(8*uint(f))&0xFF != wantMask {
				t.Fatalf("eq lane %d: %d == %d -> %02x", f, a[f], b[f], eq>>(8*uint(f))&0xFF)
			}
		}
	}
}

func TestBlendBroadcast8(t *testing.T) {
	a, b := pack8([Lanes]int8{1, 2, 3, 4, 5, 6, 7, 8}), pack8([Lanes]int8{-1, -2, -3, -4, -5, -6, -7, -8})
	mask := uint64(0x00FF00FF00FF00FF)
	got := unpack8(blend8(a, b, mask))
	want := [Lanes]int8{-1, 2, -3, 4, -5, 6, -7, 8}
	if got != want {
		t.Fatalf("blend = %v, want %v", got, want)
	}
	if broadcast8(0x7F) != 0x7F7F7F7F7F7F7F7F {
		t.Fatalf("broadcast8(0x7F) = %x", broadcast8(0x7F))
	}
	if onesCount64(laneMSB) != Lanes {
		t.Fatalf("laneMSB has %d bits", onesCount64(laneMSB))
	}
}

// TestPos8MatchGeneralExhaustive proves the bit-7-clear fast helpers
// equal to their general counterparts over every byte pair (a, b) in
// 0..127 × 0..127 — the entire precondition domain — by packing eight
// consecutive b values per word against a broadcast a.
func TestPos8MatchGeneralExhaustive(t *testing.T) {
	for a := 0; a < 128; a++ {
		wa := broadcast8(uint8(a))
		for b0 := 0; b0 < 128; b0 += Lanes {
			var bl [Lanes]int8
			for f := range bl {
				bl[f] = int8(b0 + f)
			}
			wb := pack8(bl)
			if got, want := ltPos8(wa, wb), ltMask8(wa, wb); got != want {
				t.Fatalf("ltPos8(%d, %d..%d) = %016x, ltMask8 = %016x", a, b0, b0+7, got, want)
			}
			if got, want := ltPos8(wb, wa), ltMask8(wb, wa); got != want {
				t.Fatalf("ltPos8(%d..%d, %d) = %016x, ltMask8 = %016x", b0, b0+7, a, got, want)
			}
			if got, want := minPos8(wa, wb), min8(wa, wb); got != want {
				t.Fatalf("minPos8(%d, %d..%d) = %016x, min8 = %016x", a, b0, b0+7, got, want)
			}
			if got, want := minPos8(wb, wa), min8(wb, wa); got != want {
				t.Fatalf("minPos8(%d..%d, %d) = %016x, min8 = %016x", b0, b0+7, a, got, want)
			}
			if got, want := eqPos8(wa, wb), eqMask8(wa, wb); got != want {
				t.Fatalf("eqPos8(%d, %d..%d) = %016x, eqMask8 = %016x", a, b0, b0+7, got, want)
			}
		}
	}
}

// TestCheapCondNegate proves the strength-reduced conditional negate
// used by the blocked kernels — t := x & laneMSB; n := t>>7; s := n*0xFF;
// (x^s)+n — equal to abs8 for every int8 value except −128, which the
// decoder never produces (validatePacked headroom bound).
func TestCheapCondNegate(t *testing.T) {
	for v := -127; v <= 127; v++ {
		x := broadcast8(uint8(int8(v)))
		tt := x & laneMSB
		n := tt >> 7
		s := n * 0xFF
		if got, want := (x^s)+n, abs8(x); got != want {
			t.Fatalf("cheap |%d| = %016x, abs8 = %016x", v, got, want)
		}
		// Re-sign round trip: magnitude back through (m^s)+n must
		// reproduce x (the blocked BN output step).
		m := (x ^ s) + n
		if got := (m ^ s) + n; got != x {
			t.Fatalf("re-sign of %d = %016x, want %016x", v, got, x)
		}
	}
}

// TestLaneSignsTranspose checks the two steps of the word-wide
// hard-decision extraction against their bit-by-bit definitions:
// laneSigns packs bit 7 of lane f into bit f, for every sign pattern
// and arbitrary low bits, and transpose8 moves bit 8r+c to bit 8c+r.
func TestLaneSignsTranspose(t *testing.T) {
	r := rng.New(9)
	for pat := 0; pat < 256; pat++ {
		x := r.Uint64() &^ laneMSB
		for f := 0; f < Lanes; f++ {
			if pat>>f&1 == 1 {
				x |= 0x80 << (8 * f)
			}
		}
		if got := laneSigns(x); got != uint64(pat) {
			t.Fatalf("laneSigns(%016x) = %#x, want %#x", x, got, pat)
		}
	}
	for n := 0; n < 1000; n++ {
		x := r.Uint64()
		got := transpose8(x)
		for row := 0; row < 8; row++ {
			for col := 0; col < 8; col++ {
				if got>>(8*col+row)&1 != x>>(8*row+col)&1 {
					t.Fatalf("transpose8(%016x) = %016x: bit (%d,%d) misplaced", x, got, row, col)
				}
			}
		}
	}
}
