package decoder

import (
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/sim"
)

// TestDecodeZeroAllocs enforces the hot-path allocation contract: decoding
// performs zero heap allocations per shot. Scratch is preallocated at
// worst-case bounds in NewUnionFind, so this holds from the first call,
// not just at steady state. The d=9, p=1e-2 case grows large clusters over
// many iterations, filling the per-edge growth scratch far past the d=5
// case.
func TestDecodeZeroAllocs(t *testing.T) {
	cases := []struct {
		name      string
		d, rounds int
		p         float64
		runs      int
	}{
		{name: "d5", d: 5, rounds: 5, p: 5e-3, runs: 100},
		{name: "d9-dense", d: 9, rounds: 8, p: 1e-2, runs: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dem := demFor(t, tc.d, tc.rounds, tc.p)
			g := NewGraph(dem)
			uf := NewUnionFind(g)
			sampler := sim.NewSampler(dem)
			rng := rand.New(rand.NewSource(17))
			corpus := make([][]int32, 64)
			for i := range corpus {
				flagged, _ := sampler.Shot(rng)
				corpus[i] = slices.Clone(flagged)
			}
			sink := false
			allocs := testing.AllocsPerRun(tc.runs, func() {
				for _, flagged := range corpus {
					sink = sink != uf.DecodeToObs(flagged)
				}
			})
			_ = sink
			if allocs != 0 {
				t.Errorf("DecodeToObs allocates %.1f per %d-shot run, want 0", allocs, len(corpus))
			}
		})
	}
}

// TestDecodeToEdgesScratchReuse documents the ownership contract: the
// slice returned by DecodeToEdges is invalidated by the next decode.
func TestDecodeToEdgesScratchReuse(t *testing.T) {
	dem := demFor(t, 5, 4, 1e-2)
	g := NewGraph(dem)
	uf := NewUnionFind(g)
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(23))
	var first, flagged1 []int32
	for len(first) == 0 {
		f, _ := sampler.Shot(rng)
		flagged1 = slices.Clone(f)
		first = uf.DecodeToEdges(flagged1)
	}
	snapshot := slices.Clone(first)
	for i := 0; i < 32; i++ {
		f, _ := sampler.Shot(rng)
		uf.DecodeToEdges(f)
	}
	again := uf.DecodeToEdges(flagged1)
	if !slices.Equal(again, snapshot) {
		t.Fatalf("decode of identical syndrome changed: %v vs %v", again, snapshot)
	}
}

// TestTruncationSurfaced is the regression test for the silent-truncation
// fix: a syndrome the decoder cannot annihilate (here, a flagged detector
// with no incident edges) must be counted in Truncations rather than
// silently returning a partial correction.
func TestTruncationSurfaced(t *testing.T) {
	// Detector 0 has a boundary edge; detector 1 is isolated (as can
	// happen on a malformed or degenerate decoding graph).
	g := &Graph{
		NumDets: 2,
		Edges:   []Edge{{U: 0, V: Boundary, Weight: 1, P: 0.01}},
	}
	g.buildAdj()
	uf := NewUnionFind(g)

	// A decodable syndrome must not count as truncated.
	corr := uf.DecodeToEdges([]int32{0})
	if len(corr) != 1 || corr[0] != 0 {
		t.Fatalf("decodable syndrome: correction %v, want [0]", corr)
	}
	if uf.Truncations != 0 {
		t.Fatalf("decodable syndrome counted as truncation")
	}

	// The isolated detector's flag can never be annihilated.
	uf.DecodeToEdges([]int32{1})
	if uf.Truncations != 1 {
		t.Fatalf("Truncations = %d after undecodable syndrome, want 1", uf.Truncations)
	}

	// Both flagged: detector 0 drains into the boundary, detector 1
	// truncates again; the partial correction still covers detector 0.
	corr = uf.DecodeToEdges([]int32{0, 1})
	if len(corr) != 1 || corr[0] != 0 {
		t.Fatalf("partial correction %v, want [0]", corr)
	}
	if uf.Truncations != 2 {
		t.Fatalf("Truncations = %d, want 2", uf.Truncations)
	}

	// Decoder state must be fully reset despite the truncations.
	if uf.DecodeToObs(nil) {
		t.Fatal("empty syndrome must predict no flip")
	}
}
