package sim

import (
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
)

// Phase is a stretch of QEC rounds governed by one noise model. Phased DEMs
// model dynamic defects faithfully: the hardware is nominal until the
// strike, defective afterwards — which is what the runtime defect detector
// observes.
type Phase struct {
	Rounds int
	Model  *noise.Model
}

// BuildPhasedDEM constructs the detector error model of a memory experiment
// whose noise model changes between phases. Detector layout is identical to
// the single-phase BuildDEM over the same total rounds, so decoders built
// from a nominal DEM can decode phased samples (the uninformed-decoder
// setting).
func BuildPhasedDEM(c *code.Code, phases []Phase, basis lattice.CheckType) (*DEM, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("sim: no phases")
	}
	total := 0
	for i, ph := range phases {
		if ph.Rounds < 1 {
			return nil, fmt.Errorf("sim: phase %d has %d rounds", i, ph.Rounds)
		}
		if ph.Model == nil {
			return nil, fmt.Errorf("sim: phase %d has no model", i)
		}
		total += ph.Rounds
	}
	if total < 2 {
		return nil, fmt.Errorf("sim: need at least 2 total rounds")
	}
	modelAt := func(round int) *noise.Model {
		r := round
		for _, ph := range phases {
			if r < ph.Rounds {
				return ph.Model
			}
			r -= ph.Rounds
		}
		return phases[len(phases)-1].Model
	}
	// Phased rates are round-dependent, so no single model can serve as a
	// patch base: build without a contribution plan.
	return buildDEM(c, modelAt, total, basis, nil)
}
