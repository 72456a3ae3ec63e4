package sim

import (
	"math/rand"
	"slices"
	"testing"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// TestShotZeroAllocs enforces the sampler's allocation contract: Shot
// performs zero heap allocations per call. Scratch is preallocated at
// worst-case bounds in NewSampler, so this holds from the first shot.
func TestShotZeroAllocs(t *testing.T) {
	c := freshCode(t, 5)
	dem, err := BuildDEM(c, noise.Uniform(5e-3), 5, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(dem)
	rng := rand.New(rand.NewSource(31))
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			flagged, _ := s.Shot(rng)
			sink += len(flagged)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("Shot allocates %.1f per 16-shot run, want 0", allocs)
	}
}

// TestShotScratchReuse documents the ownership contract: the slice
// returned by Shot is sampler-owned scratch, overwritten by the next call
// — and reusing the sampler must not change what is sampled.
func TestShotScratchReuse(t *testing.T) {
	c := freshCode(t, 3)
	dem, err := BuildDEM(c, noise.Uniform(1e-2), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed through a fresh sampler and a reused one: identical
	// shot sequences (cloned eagerly vs re-sampled).
	s1 := NewSampler(dem)
	rng1 := rand.New(rand.NewSource(7))
	var want [][]int32
	for i := 0; i < 200; i++ {
		flagged, _ := s1.Shot(rng1)
		want = append(want, slices.Clone(flagged))
	}
	s2 := NewSampler(dem)
	rng2 := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		flagged, _ := s2.Shot(rng2)
		if !slices.Equal(flagged, want[i]) {
			t.Fatalf("shot %d: %v != %v", i, flagged, want[i])
		}
	}
}

// truncDecoder fakes a decoder that reports every shot as truncated,
// exercising the TruncationCounter aggregation path of RunMemory.
type truncDecoder struct{ n int }

func (d *truncDecoder) DecodeToObs([]int32) bool { d.n++; return false }
func (d *truncDecoder) TruncationCount() int     { return d.n }

// TestTruncationsSurfaceInMemoryResult checks that per-worker decoder
// truncation counts aggregate into MemoryResult.Truncations, and that a
// healthy union-find run reports zero.
func TestTruncationsSurfaceInMemoryResult(t *testing.T) {
	c := freshCode(t, 3)
	model := noise.Uniform(2e-3)
	const shots = 3000
	res, _, err := RunMemory(c, model, nil, RunOptions{
		Rounds: 3, Basis: lattice.ZCheck, Shots: shots, Workers: 2, Seed: 1,
		Factory: func(*DEM) (Decoder, error) { return &truncDecoder{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncations != shots {
		t.Errorf("Truncations = %d, want %d (every shot truncates)", res.Truncations, shots)
	}
	// A decoder without the optional interface reports zero.
	plain, _, err := RunMemory(c, model, nil, RunOptions{
		Rounds: 3, Basis: lattice.ZCheck, Shots: shots, Workers: 2, Seed: 1,
		Factory: func(*DEM) (Decoder, error) {
			d := &truncDecoder{}
			return struct{ Decoder }{d}, nil // hide TruncationCount
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Truncations != 0 {
		t.Errorf("Truncations = %d for a decoder without the interface, want 0", plain.Truncations)
	}
}
