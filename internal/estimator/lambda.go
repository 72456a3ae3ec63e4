// Package estimator converts per-cycle logical error rates into program
// retry risks under dynamic defects, for each mitigation framework.
//
// Absolute logical error rates at the paper's distances (d = 19…27) are
// far below what Monte-Carlo can measure directly, so — exactly like the
// paper, which composes per-cycle rates into retry risks following
// Gidney–Ekerå — the estimator uses a Λ-extrapolation model
//
//	λ(d) = A · (p / p_th)^((d+1)/2)
//
// whose constants are fitted from union-find memory simulations in the
// measurable regime (CalibrateOpts) or taken from the defaults recorded there.
//
// Calibration is itself a sweep of independent (p, d) Monte-Carlo points
// and runs on the same machinery as the experiment grids: CalibrateOpts
// fans points out over a worker pool, stops each adaptively at a target
// relative standard error, derives every point's seed from (Seed, p, d)
// alone — so results are bit-identical for any parallelism or resume
// order — and can persist points to the result store so a re-calibration
// only pays for configurations it has not measured yet.
package estimator

import (
	"context"
	"fmt"
	"math"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/store"
)

// LambdaModel extrapolates the per-cycle logical error rate to arbitrary
// code distance.
type LambdaModel struct {
	P          float64 // physical error rate
	PThreshold float64 // fitted effective threshold of the decoder
	A          float64 // fitted prefactor
}

// DefaultLambda returns the extrapolation model used by the program-level
// experiments. The constants are pinned by two anchors (see EXPERIMENTS.md):
// they sit inside the uncertainty band of this repository's own union-find
// calibration (CalibrateOpts at p ∈ [3,6]×10⁻³ fits A ≈ 0.04–0.09,
// p_th ≈ 6.5–10×10⁻³; the power-law ansatz cannot pin p = 10⁻³ behaviour
// from the measurable regime alone), and they reproduce the effective
// per-cycle rates implied by the paper's own Table II retry risks
// (λ(19) ≈ 6×10⁻¹⁰ at p = 10⁻³).
func DefaultLambda() *LambdaModel {
	return &LambdaModel{P: noise.DefaultPhysical, PThreshold: 6.5e-3, A: 0.08}
}

// Rate returns the per-cycle logical error rate at distance d (both error
// species combined). Distances below 2 saturate at the random limit.
func (m *LambdaModel) Rate(d int) float64 {
	if d < 2 {
		return 0.5
	}
	lam := m.A * math.Pow(m.P/m.PThreshold, float64(d+1)/2)
	if lam > 0.5 {
		return 0.5
	}
	return lam
}

// RateAt evaluates the model at a different physical rate (fig. 14a).
func (m *LambdaModel) RateAt(p float64, d int) float64 {
	c := *m
	c.P = p
	return c.Rate(d)
}

// CalibrationPoint is one measured (p, d) → λ sample.
type CalibrationPoint struct {
	P      float64
	D      int
	Lambda float64
}

// CalibrateOptions tunes the calibration sweep. The zero value of every
// knob is valid: TargetRSE == 0 runs the exact Shots budget per point,
// Workers <= 0 uses every CPU inside a point, PointWorkers <= 1 runs
// points serially, and a nil Store disables persistence.
type CalibrateOptions struct {
	Rounds int
	// Shots is the per-point budget: exact when TargetRSE == 0, a cap
	// otherwise.
	Shots int
	// TargetRSE, when positive, stops each calibration point at this
	// relative standard error instead of burning the full budget — the
	// adaptive path that makes calibration cheap at measurable rates.
	TargetRSE float64
	// Workers sizes the within-point Monte-Carlo pool; PointWorkers fans
	// (p, d) points out concurrently. Neither changes results.
	Workers      int
	PointWorkers int
	// Ctx, when non-nil, cancels the calibration sweep cooperatively at
	// point and shard boundaries; CalibrateOpts then returns an error
	// wrapping mc.ErrCanceled (completed points stay in the store).
	Ctx     context.Context
	Factory sim.DecoderFactory
	// Decoder names the factory for the store's config hash ("uf",
	// "greedy", "exact"); required when Store is set.
	Decoder string
	Seed    int64
	// Store and Resume wire calibration points into the persistent result
	// store, exactly like experiment grid points: complete points are
	// served, partial ones top up only the missing shots.
	Store  *store.Store
	Resume bool
	// OnPoint, when non-nil, is called once per (p, d) point with fromStore
	// reporting whether both basis halves were served from the store. It
	// may be called concurrently (PointWorkers > 1).
	OnPoint func(fromStore bool)
	// Progress, when non-nil, streams grid completion to its writer while
	// the calibration sweep runs. Observation-only.
	Progress *obs.Progress
}

// calConfig is the store identity of one calibration point (the shot
// budget accumulates and is deliberately absent; see DESIGN.md §7).
type calConfig struct {
	P         float64 `json:"p"`
	D         int     `json:"d"`
	Rounds    int     `json:"rounds"`
	Decoder   string  `json:"decoder"`
	Seed      int64   `json:"seed"`
	TargetRSE float64 `json:"target_rse,omitempty"`
}

// calSalt keeps calibration streams disjoint from engine shard streams
// (negative leading path element; see mc.DeriveSeed).
const calSalt = int64(-14)

// CalibrateOpts measures every (p, d) calibration point on the adaptive
// Monte-Carlo path — point-level pool, per-point derived seeds, optional
// early stopping at TargetRSE, optional persistent store with resume — and
// fits A and p_th by least squares in log space; points whose measured rate
// is zero (no failures) are skipped. Point results are bit-identical for
// any Workers/PointWorkers values and any resume order.
func CalibrateOpts(ps []float64, ds []int, o CalibrateOptions) (*LambdaModel, []CalibrationPoint, error) {
	if o.Factory == nil {
		return nil, nil, fmt.Errorf("estimator: CalibrateOptions.Factory is required")
	}
	if o.Store != nil && o.Decoder == "" {
		// The decoder name is part of the point's content address; without
		// it, calibrations with different factories would share store keys
		// and resume would serve the wrong decoder's results.
		return nil, nil, fmt.Errorf("estimator: CalibrateOptions.Decoder is required when Store is set")
	}
	type point struct {
		p float64
		d int
	}
	var grid []point
	for _, p := range ps {
		for _, d := range ds {
			grid = append(grid, point{p, d})
		}
	}
	lambdas := make([]float64, len(grid))
	o.Progress.Begin(len(grid))
	defer o.Progress.End()
	err := mc.ForEach(o.Ctx, o.PointWorkers, len(grid), func(i int) error {
		defer o.Progress.PointDone()
		pt := grid[i]
		c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, pt.d))
		seed := mc.DeriveSeed(o.Seed, calSalt, int64(math.Round(pt.p*1e9)), int64(pt.d))
		_, _, combined, fromStore, err := sim.RunMemoryBoth(c, noise.Uniform(pt.p), nil, sim.RunOptions{
			Rounds:    o.Rounds,
			Factory:   o.Factory,
			Shots:     o.Shots,
			Workers:   o.Workers,
			TargetRSE: o.TargetRSE,
			Seed:      seed,
			Ctx:       o.Ctx,
			Store: sim.StoreOptions{
				Store:  o.Store,
				Resume: o.Resume,
				Kind:   "calibrate",
				Config: calConfig{P: pt.p, D: pt.d, Rounds: o.Rounds,
					Decoder: o.Decoder, Seed: o.Seed, TargetRSE: o.TargetRSE},
			},
		})
		if err != nil {
			return err
		}
		if o.OnPoint != nil {
			o.OnPoint(fromStore)
		}
		lambdas[i] = combined
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var pts []CalibrationPoint
	for i, pt := range grid {
		if lambdas[i] <= 0 {
			continue
		}
		pts = append(pts, CalibrationPoint{P: pt.p, D: pt.d, Lambda: lambdas[i]})
	}
	if len(pts) < 3 {
		return nil, pts, fmt.Errorf("estimator: only %d usable calibration points", len(pts))
	}
	// log λ_i = logA + k_i·log p_i − k_i·log p_th with k_i = (d_i+1)/2:
	// least squares over (logA, log p_th).
	var s11, s12, s22, b1, b2 float64
	for _, pt := range pts {
		k := float64(pt.D+1) / 2
		y := math.Log(pt.Lambda) - k*math.Log(pt.P)
		// features: x1 = 1 (logA), x2 = -k (log p_th)
		s11 += 1
		s12 += -k
		s22 += k * k
		b1 += y
		b2 += -k * y
	}
	det := s11*s22 - s12*s12
	if det == 0 {
		return nil, pts, fmt.Errorf("estimator: singular calibration system")
	}
	logA := (b1*s22 - b2*s12) / det
	logPth := (s11*b2 - s12*b1) / det
	m := &LambdaModel{P: ps[0], PThreshold: math.Exp(logPth), A: math.Exp(logA)}
	return m, pts, nil
}
