package sim

import (
	"math"
	"math/rand"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

func TestFrameSimulatorZeroNoise(t *testing.T) {
	c := freshCode(t, 3)
	f, err := NewFrameSimulator(c, noise.Uniform(0), 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	flagged, obs := f.Batch(rand.New(rand.NewSource(1)))
	for shot := 0; shot < 64; shot++ {
		if len(flagged[shot]) != 0 || obs[shot] {
			t.Fatalf("zero-noise shot %d produced events", shot)
		}
	}
}

func TestFrameSimulatorDetectorLayoutMatchesDEM(t *testing.T) {
	c := freshCode(t, 3)
	model := noise.Uniform(1e-3)
	dem, err := BuildDEM(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrameSimulator(c, model, 4, lattice.ZCheck)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumDetectors() != dem.NumDets {
		t.Fatalf("frame sim has %d detectors, DEM has %d", f.NumDetectors(), dem.NumDets)
	}
}

// TestFrameSimulatorCrossValidatesDEM is the decisive consistency check of
// the whole simulation stack: the DEM path (backward-sweep fault analysis +
// mechanism sampling) and the direct frame simulation must produce
// statistically identical detector-event rates and logical-flip rates,
// since they model the same circuit under the same noise. It covers both
// memory bases on the pristine d=3 patch and on the deformed d=5 patch
// (removed data qubit, super-stabilizers), ≈30k shots per path and case.
func TestFrameSimulatorCrossValidatesDEM(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     *code.Code
		basis lattice.CheckType
	}{
		{"d3-Z", freshCode(t, 3), lattice.ZCheck},
		{"d3-X", freshCode(t, 3), lattice.XCheck},
		{"d5-removed-Z", deformedCode(t), lattice.ZCheck},
		{"d5-removed-X", deformedCode(t), lattice.XCheck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crossValidateDEM(t, tc.c, tc.basis)
		})
	}
}

// crossValidateDEM samples c's memory experiment through the DEM and through
// the frame simulator and compares the event statistics.
func crossValidateDEM(t *testing.T, c *code.Code, basis lattice.CheckType) {
	model := noise.Uniform(5e-3)
	const rounds = 4

	dem, err := BuildDEM(c, model, rounds, basis)
	if err != nil {
		t.Fatal(err)
	}
	sampler := NewSampler(dem)
	rng1 := rand.New(rand.NewSource(7))
	demShots := 30000
	demEvents := 0
	demObs := 0
	perDetDEM := make([]int, dem.NumDets)
	for s := 0; s < demShots; s++ {
		flagged, obs := sampler.Shot(rng1)
		demEvents += len(flagged)
		for _, d := range flagged {
			perDetDEM[d]++
		}
		if obs {
			demObs++
		}
	}

	f, err := NewFrameSimulator(c, model, rounds, basis)
	if err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(8))
	frameShots := 0
	frameEvents := 0
	frameObs := 0
	perDetFrame := make([]int, f.NumDetectors())
	for batch := 0; batch < 470; batch++ { // ≈30k shots
		flagged, obs := f.Batch(rng2)
		for shot := 0; shot < 64; shot++ {
			frameShots++
			frameEvents += len(flagged[shot])
			for _, d := range flagged[shot] {
				perDetFrame[d]++
			}
			if obs[shot] {
				frameObs++
			}
		}
	}

	demRate := float64(demEvents) / float64(demShots)
	frameRate := float64(frameEvents) / float64(frameShots)
	t.Logf("mean detection events/shot: DEM %.4f vs frames %.4f", demRate, frameRate)
	if ratio := demRate / frameRate; ratio < 0.93 || ratio > 1.07 {
		t.Errorf("detection-event rates differ: DEM %.4f vs frames %.4f", demRate, frameRate)
	}
	demObsRate := float64(demObs) / float64(demShots)
	frameObsRate := float64(frameObs) / float64(frameShots)
	t.Logf("observable flip rate: DEM %.4f vs frames %.4f", demObsRate, frameObsRate)
	// Binomial 3σ window around the pooled rate.
	pooled := (demObsRate + frameObsRate) / 2
	sigma := 3 * math.Sqrt(pooled*(1-pooled)*(1.0/float64(demShots)+1.0/float64(frameShots)))
	if diff := math.Abs(demObsRate - frameObsRate); diff > sigma+1e-4 {
		t.Errorf("observable flip rates differ beyond 3σ: %.4f vs %.4f (σ=%.4f)", demObsRate, frameObsRate, sigma)
	}
	// Per-detector rates: the busiest detectors must agree within 15%.
	for d := 0; d < dem.NumDets; d++ {
		dr := float64(perDetDEM[d]) / float64(demShots)
		fr := float64(perDetFrame[d]) / float64(frameShots)
		if dr < 0.01 && fr < 0.01 {
			continue // too rare for a tight comparison
		}
		if dr == 0 || fr == 0 || dr/fr < 0.85 || dr/fr > 1.18 {
			t.Errorf("detector %d rate mismatch: DEM %.4f vs frames %.4f", d, dr, fr)
		}
	}
}

func TestBiasedMaskStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []float64{0.001, 0.02, 0.3, 0.9} {
		total := 0
		draws := 4000
		for i := 0; i < draws; i++ {
			m := biasedMask(p, rng)
			for ; m != 0; m &= m - 1 {
				total++
			}
		}
		got := float64(total) / float64(draws*64)
		if got < p*0.85-0.001 || got > p*1.15+0.001 {
			t.Errorf("biasedMask(%v) bit rate %.4f", p, got)
		}
	}
	if biasedMask(0, rng) != 0 {
		t.Error("p=0 must give empty mask")
	}
	if biasedMask(1, rng) != ^uint64(0) {
		t.Error("p=1 must give full mask")
	}
}
