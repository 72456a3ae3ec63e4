package estimator

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/program"
	"surfdeformer/internal/store"
)

func TestLambdaModelMonotone(t *testing.T) {
	m := DefaultLambda()
	prev := 1.0
	for d := 3; d <= 27; d += 2 {
		lam := m.Rate(d)
		if lam >= prev {
			t.Errorf("λ(%d) = %v not decreasing", d, lam)
		}
		prev = lam
	}
	if m.Rate(1) != 0.5 {
		t.Error("d<2 must saturate at 0.5")
	}
	if m.RateAt(2e-3, 9) <= m.Rate(9) {
		t.Error("higher physical rate must raise λ")
	}
}

func TestCalibrateRecoversModel(t *testing.T) {
	// Calibrate against real simulations at measurable settings; the fit
	// must interpolate its own calibration points within a factor ~3.
	m, pts, err := CalibrateOpts([]float64{4e-3, 6e-3}, []int{3, 5}, CalibrateOptions{
		Rounds: 4, Shots: 3000, Factory: decoder.UnionFindFactory(), Seed: 17,
	})
	if err != nil {
		t.Fatalf("calibration failed: %v", err)
	}
	if m.PThreshold < 1e-3 || m.PThreshold > 0.1 {
		t.Errorf("fitted threshold %.4g implausible", m.PThreshold)
	}
	for _, pt := range pts {
		pred := m.RateAt(pt.P, pt.D)
		ratio := pred / pt.Lambda
		if ratio < 1.0/4 || ratio > 4 {
			t.Errorf("fit at p=%v d=%d off by %.2fx (measured %v, predicted %v)",
				pt.P, pt.D, ratio, pt.Lambda, pred)
		}
	}
	t.Logf("fitted A=%.3g p_th=%.3g from %d points", m.A, m.PThreshold, len(pts))
}

// The adaptive calibration path must fit a plausible model, obey the
// point-worker determinism contract, and resume from the store without
// recomputing any point.
func TestCalibrateAdaptiveStoreResume(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opts := CalibrateOptions{
		Rounds: 4, Shots: 20000, TargetRSE: 0.25,
		Factory: decoder.UnionFindFactory(), Decoder: "uf",
		Seed: 17, Store: st, Resume: true,
	}
	ps, ds := []float64{4e-3, 6e-3}, []int{3, 5}

	var computed, skipped atomic.Int64 // OnPoint may be called concurrently
	opts.OnPoint = func(fromStore bool) {
		if fromStore {
			skipped.Add(1)
		} else {
			computed.Add(1)
		}
	}
	m1, pts1, err := CalibrateOpts(ps, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if int(computed.Load()) != len(ps)*len(ds) || skipped.Load() != 0 {
		t.Fatalf("first pass: computed %d, skipped %d", computed.Load(), skipped.Load())
	}
	if m1.PThreshold < 1e-3 || m1.PThreshold > 0.1 {
		t.Errorf("adaptive fit threshold %.4g implausible", m1.PThreshold)
	}

	// Second pass: everything served from the store, identical fit, and
	// parallel point workers must not change anything.
	computed.Store(0)
	skipped.Store(0)
	opts.PointWorkers = 4
	m2, pts2, err := CalibrateOpts(ps, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 0 || int(skipped.Load()) != len(ps)*len(ds) {
		t.Fatalf("resume pass: computed %d, skipped %d", computed.Load(), skipped.Load())
	}
	if *m1 != *m2 || !reflect.DeepEqual(pts1, pts2) {
		t.Fatalf("resumed fit diverges: %+v vs %+v", m1, m2)
	}
}

// Adaptive early stopping must actually save shots versus the fixed
// budget at an easily-measurable configuration.
func TestCalibrateAdaptiveSavesShots(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "cal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, _, err = CalibrateOpts([]float64{6e-3}, []int{3, 5, 7}, CalibrateOptions{
		Rounds: 4, Shots: 200000, TargetRSE: 0.2,
		Factory: decoder.UnionFindFactory(), Decoder: "uf",
		Seed: 17, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range st.Keys() {
		pt, _ := st.Get(key)
		if pt.Shots >= 200000 {
			t.Errorf("point %s burned the full budget (%d shots) despite TargetRSE", key, pt.Shots)
		}
	}
}

func TestEstimateProgramOrdering(t *testing.T) {
	// The core Table II shape: at equal d, Surf-Deformer's retry risk is
	// far below ASC-S's; Q3DE reports OverRuntime; larger d reduces risk.
	prog := program.Simon(400, 1000)
	dm := defect.Paper()
	lm := DefaultLambda()
	fws := DefaultFrameworks()
	rng := rand.New(rand.NewSource(1))
	d := 19
	dd := layout.ChooseDeltaD(dm, d, layout.DefaultAlphaBlock)

	surf := EstimateProgram(prog, fws[layout.SurfDeformer], d, dd, dm, lm, 40, rng)
	asc := EstimateProgram(prog, fws[layout.ASCS], d, dd, dm, lm, 40, rng)
	q3de := EstimateProgram(prog, fws[layout.Q3DE], d, dd, dm, lm, 40, rng)

	if !q3de.OverRuntime {
		t.Error("Q3DE on the fixed layout must report OverRuntime")
	}
	if surf.OverRuntime || asc.OverRuntime {
		t.Error("Surf-Deformer and ASC-S must not stall")
	}
	if surf.RetryRisk <= 0 || surf.RetryRisk >= 1 {
		t.Errorf("Surf retry risk %.4f out of range", surf.RetryRisk)
	}
	if asc.RetryRisk < 5*surf.RetryRisk {
		t.Errorf("ASC risk %.4f should be well above Surf risk %.4f", asc.RetryRisk, surf.RetryRisk)
	}
	surf21 := EstimateProgram(prog, fws[layout.SurfDeformer], 21, dd, dm, lm, 40, rng)
	if surf21.RetryRisk >= surf.RetryRisk {
		t.Errorf("d=21 risk %.4f should be below d=19 risk %.4f", surf21.RetryRisk, surf.RetryRisk)
	}
	if surf.PhysicalQubits <= asc.PhysicalQubits {
		t.Error("Surf layout must cost more qubits than ASC at equal d")
	}
}

func TestMinimalDistanceSearch(t *testing.T) {
	prog := program.Grover(9, 80)
	dm := defect.Paper()
	lm := DefaultLambda()
	fw := DefaultFrameworks()[layout.SurfDeformer]
	rng := rand.New(rand.NewSource(2))
	deltaD := func(d int) int { return layout.ChooseDeltaD(dm, d, layout.DefaultAlphaBlock) }
	est, ok := MinimalDistance(prog, fw, 0.01, deltaD, dm, lm, 20, 41, rng)
	if !ok {
		t.Fatalf("no distance up to 41 met 1%% (got %.4f at d=%d)", est.RetryRisk, est.D)
	}
	if est.RetryRisk > 0.01 {
		t.Errorf("returned estimate %.4f misses target", est.RetryRisk)
	}
	// The distance below must fail the target (minimality).
	below := EstimateProgram(prog, fw, est.D-2, deltaD(est.D-2), dm, lm, 20, rng)
	if est.D > 3 && below.RetryRisk <= 0.01 {
		t.Errorf("d=%d already meets target; %d not minimal", est.D-2, est.D)
	}
}

func TestLatticeSurgeryUntreatedIsWorst(t *testing.T) {
	prog := program.Simon(400, 1000)
	dm := defect.Paper()
	lm := DefaultLambda()
	fws := DefaultFrameworks()
	rng := rand.New(rand.NewSource(3))
	d := 19
	ls := EstimateProgram(prog, fws[layout.LatticeSurgery], d, 0, dm, lm, 30, rng)
	surf := EstimateProgram(prog, fws[layout.SurfDeformer], d, 4, dm, lm, 30, rng)
	if ls.RetryRisk < surf.RetryRisk*10 {
		t.Errorf("untreated LS risk %.4f should dwarf Surf risk %.4f", ls.RetryRisk, surf.RetryRisk)
	}
}
