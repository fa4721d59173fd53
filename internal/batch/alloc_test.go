package batch

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ccsdsldpc/internal/bitvec"
	"ccsdsldpc/internal/fixed"
	"ccsdsldpc/internal/ldpc"
)

// skipUnderFuzzEngine skips allocation-count assertions when the test
// binary was started with an active -fuzz target: the in-process fuzz
// coordinator boots worker IPC concurrently with the unit-test phase,
// and its background allocations land inside AllocsPerRun's window,
// flaking the zero-alloc guards with phantom objects the decode path
// never allocated. The guards still run in every plain `go test`
// invocation, including the race matrix.
func skipUnderFuzzEngine(t *testing.T) {
	t.Helper()
	for _, a := range os.Args {
		if strings.HasPrefix(a, "-test.fuzz=") && !strings.HasPrefix(a, "-test.fuzz=^$") {
			t.Skip("allocation counts race with the in-process fuzz coordinator")
		}
	}
}

// bestAllocs warms run up and returns the fewest allocations per call
// over a few AllocsPerRun attempts: a loaded box can land
// runtime-internal allocations (GC assists, timer wheel) inside one
// window, but a decode path that really allocates does so on every
// attempt.
func bestAllocs(run func()) float64 {
	run()
	best := testing.AllocsPerRun(10, run)
	for try := 0; try < 2 && best != 0; try++ {
		if a := testing.AllocsPerRun(10, run); a < best {
			best = a
		}
	}
	return best
}

// TestSteadyStateZeroAlloc is the zero-alloc regression guard over the
// decode paths — scalar fixed-point and the packed decoder at every
// strip width, over both memory layouts (circulant-run "blocked" and
// the identity "indexed" layout of a graph without a circulant table):
// once warmed up, a decode iteration must allocate nothing, or the
// serving layer's allocation-free worker contract (and the shard pool's
// reusable-barrier design) has rotted.
func TestSteadyStateZeroAlloc(t *testing.T) {
	skipUnderFuzzEngine(t)
	c := smallCode(t)
	p := highSpeedParams()
	g := ldpc.NewGraph(c)
	bare := *g
	bare.QC = nil
	layouts := []struct {
		name string
		g    *ldpc.Graph
	}{{"indexed", &bare}, {"blocked", g}}

	fd, err := fixed.NewDecoderGraph(g, p)
	if err != nil {
		t.Fatal(err)
	}
	q := noisyQ(t, c, p.Format, 3.0, 42)

	cases := []struct {
		name string
		run  func()
	}{
		{"scalar", func() { fd.DecodeQ(q) }},
	}
	for _, lw := range LaneWidths {
		for _, lay := range layouts {
			pd, err := NewParallelGraph(lay.g, p, ParallelConfig{Shards: 4, SuperBatch: 4, LaneWidth: lw})
			if err != nil {
				t.Fatal(err)
			}
			defer pd.Close()
			nfp := pd.Capacity() - 3 // partial tail word stays on the hot path
			qsp := make([][]int16, nfp)
			resp := make([]ldpc.Result, nfp)
			for f := range qsp {
				qsp[f] = noisyQ(t, c, p.Format, 3.0, uint64(100+f))
				resp[f].Bits = bitvec.New(c.N)
			}
			cases = append(cases, struct {
				name string
				run  func()
			}{fmt.Sprintf("sharded/L%d/%s", lw, lay.name), func() {
				if err := pd.DecodeQInto(resp, qsp); err != nil {
					t.Fatal(err)
				}
			}})
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if best := bestAllocs(tc.run); best != 0 {
				t.Errorf("%s decode allocates %.1f objects per call, want 0", tc.name, best)
			}
		})
	}
}
