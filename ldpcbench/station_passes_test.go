package main

import "testing"

func TestStationDrawIsSeededAndDistinct(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		a, b := stationDraw(seed), stationDraw(seed)
		if len(a) != stationPasses {
			t.Fatalf("seed %d: %d passes, want %d", seed, len(a), stationPasses)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: two draws differ at pass %d", seed, i)
			}
			for j := 0; j < i; j++ {
				if a[i] == a[j] {
					t.Fatalf("seed %d: pass %d drawn twice", seed, i)
				}
			}
		}
	}
	if stationDraw(1)[0] == stationDraw(2)[0] && stationDraw(1)[1] == stationDraw(2)[1] {
		t.Error("seeds 1 and 2 draw the same passes")
	}
}
