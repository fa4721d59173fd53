package main

import (
	"sync"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/channel"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/rng"
	"ccsdsldpc/internal/sim"
)

// frameSet is a seeded set of noisy frames of one catalog code, with the
// transmitted codewords every answer is checked against.
type frameSet struct {
	built *registry.Built
	// q holds each frame's quantized channel LLRs at every inner
	// position — the decoder input of a code with nothing punctured or
	// shortened.
	q [][]int16
	// cws are the transmitted inner codewords.
	cws []*bitvec.Vector
}

// genFrames draws n frames of a code at an Eb/N0. Frame i is a pure
// function of (seed, code, i), so a seed fixes the inputs whatever the
// worker count.
func genFrames(b *registry.Built, id registry.ID, ebn0 float64, n int, seed uint64) (*frameSet, error) {
	c := b.Code
	kEff := c.K - len(b.KnownZero)
	nTx := c.N - len(b.PuncturedCols) - len(b.KnownZero)
	ch, err := channel.NewAWGN(ebn0, float64(kEff)/float64(nTx))
	if err != nil {
		return nil, err
	}
	f := fixed.DefaultHighSpeedParams().Format
	shortMask := sim.ColumnMask(c.N, b.KnownZero)
	fs := &frameSet{built: b, q: make([][]int16, n), cws: make([]*bitvec.Vector, n)}
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				r := rng.New(seed*0x9e3779b97f4a7c15 ^ (uint64(id)<<32+uint64(i))*0xd1b54a32d192ed03)
				cw := c.Encode(sim.RandomInfo(c, shortMask, r))
				fs.q[i] = f.QuantizeSlice(nil, ch.CorruptCodeword(cw, r))
				fs.cws[i] = cw
			}
		}(w)
	}
	wg.Wait()
	return fs, nil
}

// wire returns frame i as sent: transmitted positions only, with fill
// positions carrying a confident known zero.
func (fs *frameSet) wire(i int) []int16 {
	max := fixed.DefaultHighSpeedParams().Format.Max()
	out := make([]int16, len(fs.built.TxPositions))
	for w, j := range fs.built.TxPositions {
		if j >= 0 {
			out[w] = fs.q[i][j]
		} else {
			out[w] = max
		}
	}
	return out
}

// packed returns a codeword as the wire protocol packs hard decisions:
// bit j of the codeword is bit j&7 of byte j>>3.
func packed(cw *bitvec.Vector) []byte {
	out := make([]byte, (cw.Len()+7)/8)
	words := cw.Words()
	for i := range out {
		out[i] = byte(words[i>>3] >> (8 * uint(i&7)))
	}
	return out
}
