package main

import (
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/station"
)

// stationPass is one QPSK pass of the station-link workload: the seed of
// its data and noise, and where its one clock slip and its one 90° flip
// fall.
type stationPass struct {
	seed uint64
	slip station.Slip
	flip station.Flip
}

// stationPool is the set of passes a run draws from. Each was drawn at
// random — a ±1-symbol slip and a flip at seeded symbols of frames
// 16–239 — and then run once through the station at the commit that
// defined the benchmark, which recovered every clean frame of it
// bit-exact. Of the first 48 candidates one failed: the station locked
// at acquisition onto a rotated copy of the first marker shifted by
// nine symbols and lost the pass's first 13 frames. A run on such a
// pass would fail the correctness gate on every commit, so the pool
// leaves it out. The list is frozen: every commit sees the same passes.
var stationPool = []stationPass{
	{0x936cd06b85b3133a, station.Slip{Frame: 98, Symbol: 1879, Symbols: 1}, station.Flip{Frame: 239, Symbol: 1525, Quarters: 1}},
	{0x0a5100204218dd27, station.Slip{Frame: 109, Symbol: 1651, Symbols: -1}, station.Flip{Frame: 142, Symbol: 3839, Quarters: 1}},
	{0x76ee471ede02f709, station.Slip{Frame: 31, Symbol: 2652, Symbols: 1}, station.Flip{Frame: 209, Symbol: 3540, Quarters: 1}},
	{0x212c1ad12a1723a0, station.Slip{Frame: 153, Symbol: 3190, Symbols: -1}, station.Flip{Frame: 110, Symbol: 1814, Quarters: 1}},
	{0x748d201d670dc46f, station.Slip{Frame: 168, Symbol: 2693, Symbols: -1}, station.Flip{Frame: 208, Symbol: 902, Quarters: 1}},
	{0xb1f9887a1c215ce1, station.Slip{Frame: 216, Symbol: 3342, Symbols: 1}, station.Flip{Frame: 125, Symbol: 800, Quarters: 1}},
	{0xfb0c1950789951c3, station.Slip{Frame: 52, Symbol: 2745, Symbols: -1}, station.Flip{Frame: 202, Symbol: 1219, Quarters: 1}},
	{0xf78658ea1aaa4d33, station.Slip{Frame: 220, Symbol: 167, Symbols: -1}, station.Flip{Frame: 217, Symbol: 2514, Quarters: 1}},
	{0x39b546025e793aa9, station.Slip{Frame: 42, Symbol: 91, Symbols: -1}, station.Flip{Frame: 218, Symbol: 3906, Quarters: 1}},
	{0x03c1753e0327b12f, station.Slip{Frame: 156, Symbol: 275, Symbols: -1}, station.Flip{Frame: 57, Symbol: 2782, Quarters: 1}},
	{0xcb9f0b0b9b49ff62, station.Slip{Frame: 208, Symbol: 1031, Symbols: 1}, station.Flip{Frame: 181, Symbol: 283, Quarters: 1}},
	{0x265123b28094a0fb, station.Slip{Frame: 83, Symbol: 4011, Symbols: -1}, station.Flip{Frame: 103, Symbol: 3845, Quarters: 1}},
	{0x7aa7c2ee87628167, station.Slip{Frame: 103, Symbol: 3850, Symbols: 1}, station.Flip{Frame: 191, Symbol: 3462, Quarters: 1}},
	{0xef7ff351b6168482, station.Slip{Frame: 182, Symbol: 2900, Symbols: 1}, station.Flip{Frame: 152, Symbol: 3992, Quarters: 1}},
	{0x4e569edb7fb04968, station.Slip{Frame: 89, Symbol: 2320, Symbols: 1}, station.Flip{Frame: 162, Symbol: 341, Quarters: 1}},
	{0x406e25ea054aa244, station.Slip{Frame: 120, Symbol: 1410, Symbols: 1}, station.Flip{Frame: 123, Symbol: 414, Quarters: 1}},
	{0xfb7155fc9e64152b, station.Slip{Frame: 117, Symbol: 2364, Symbols: 1}, station.Flip{Frame: 71, Symbol: 2582, Quarters: 1}},
	{0x28940a4dc7f6c602, station.Slip{Frame: 20, Symbol: 1233, Symbols: -1}, station.Flip{Frame: 35, Symbol: 3259, Quarters: 1}},
	{0x72910c43d2cf493c, station.Slip{Frame: 45, Symbol: 832, Symbols: 1}, station.Flip{Frame: 186, Symbol: 3352, Quarters: 1}},
	{0xf5b83a9f756f02d0, station.Slip{Frame: 176, Symbol: 3373, Symbols: -1}, station.Flip{Frame: 224, Symbol: 2396, Quarters: 1}},
	{0xb603e0bb0a463dbc, station.Slip{Frame: 56, Symbol: 3256, Symbols: 1}, station.Flip{Frame: 33, Symbol: 3385, Quarters: 1}},
	{0xf670fbcab069f33a, station.Slip{Frame: 91, Symbol: 3604, Symbols: -1}, station.Flip{Frame: 201, Symbol: 1523, Quarters: 1}},
	{0xa62384bdef02aa53, station.Slip{Frame: 229, Symbol: 722, Symbols: 1}, station.Flip{Frame: 133, Symbol: 3759, Quarters: 1}},
	{0x361324dcd3bc4e28, station.Slip{Frame: 112, Symbol: 2063, Symbols: 1}, station.Flip{Frame: 75, Symbol: 1947, Quarters: 1}},
	{0x29dfe71ccbdfb5f8, station.Slip{Frame: 202, Symbol: 4013, Symbols: 1}, station.Flip{Frame: 162, Symbol: 1599, Quarters: 1}},
	{0x801297be0af88a84, station.Slip{Frame: 124, Symbol: 1595, Symbols: 1}, station.Flip{Frame: 100, Symbol: 945, Quarters: 1}},
	{0xad30a9b9a1484bbf, station.Slip{Frame: 54, Symbol: 3009, Symbols: 1}, station.Flip{Frame: 58, Symbol: 1332, Quarters: 1}},
	{0xa5bf3bbf54bc9c1f, station.Slip{Frame: 217, Symbol: 2992, Symbols: 1}, station.Flip{Frame: 201, Symbol: 2500, Quarters: 1}},
	{0x60a8afbb74b368d7, station.Slip{Frame: 199, Symbol: 3112, Symbols: 1}, station.Flip{Frame: 234, Symbol: 2231, Quarters: 1}},
	{0x06b7a740aa9e7268, station.Slip{Frame: 83, Symbol: 3892, Symbols: -1}, station.Flip{Frame: 107, Symbol: 263, Quarters: 1}},
	{0x5517e5c65f37eefc, station.Slip{Frame: 162, Symbol: 272, Symbols: -1}, station.Flip{Frame: 106, Symbol: 124, Quarters: 1}},
	{0xbfbfbbdb10b7dbdb, station.Slip{Frame: 73, Symbol: 448, Symbols: 1}, station.Flip{Frame: 201, Symbol: 1700, Quarters: 1}},
}

// stationDraw returns the passes a run cycles through: stationPasses
// distinct passes of the pool, chosen by seed.
func stationDraw(seed uint64) []stationPass {
	r := rng.New(seed ^ 0x73746174696f6e)
	pick := make([]stationPass, 0, stationPasses)
	used := make(map[int]bool, stationPasses)
	for len(pick) < stationPasses {
		if i := r.Intn(len(stationPool)); !used[i] {
			used[i] = true
			pick = append(pick, stationPool[i])
		}
	}
	return pick
}
