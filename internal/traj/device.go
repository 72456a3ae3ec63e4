package traj

// The fabrication-defect device path: each trajectory samples a permanent
// defect map from Config.Device (per-trajectory device seed, paired across
// arms), adapts the code to it at boot through the arm's mitigation ladder
// (bandage super-stabilizers or removal), and then runs the dynamic defect
// processes on the already-degraded device. Defective syndrome sites have
// no structural mitigation — they only elevate rates, merged max-wins under
// whatever dynamic events strike on top.

import (
	"surfdeformer/internal/code"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
)

// armMitigation resolves the arm's mitigation ladder under the config's
// severity-boundary override and rejects misordered ladders.
func armMitigation(cfg Config, mode Mode) (deform.Mitigation, error) {
	mit := mode.Mitigation()
	if cfg.SuperThreshold != 0 {
		mit.SuperThreshold = cfg.SuperThreshold
	}
	return mit, mit.Validate()
}

// sampleDevice draws the trajectory's fabrication-defect device (nil model
// = pristine fab). The device seed derives from the trajectory seed on its
// own salt stream, so every arm of a paired comparison sees the same device
// and the event/shot streams are untouched by its presence.
func sampleDevice(cfg Config, min, max lattice.Coord, seed int64) *defect.Device {
	if cfg.Device == nil {
		return nil
	}
	return cfg.Device.Sample(min, max, mc.DeriveSeed(seed, saltDevice))
}

// deviceRateMap is the permanent site-rate floor of a sampled device: every
// defective site (data and syndrome) at the device's error rate. Sites the
// boot adaptation removes from the circuit keep their entries — the DEM
// builder only consults rates at live circuit sites, and keeping the map
// constant per trajectory keeps the cache keys stable.
func deviceRateMap(dev *defect.Device) map[lattice.Coord]float64 {
	if dev == nil {
		return nil
	}
	out := noise.DeviceDefectRates(dev.DataDefects, dev.ErrorRate)
	for q, r := range noise.DeviceDefectRates(dev.SyndromeDefects, dev.ErrorRate) {
		out[q] = r
	}
	return out
}

// mergedRates overlays the permanent device rates under the dynamic event
// rates, max-wins per site — the same composition rule activeRates applies
// among overlapping events. Returns dynamic unchanged when no device rates
// apply.
func mergedRates(dynamic, device map[lattice.Coord]float64) map[lattice.Coord]float64 {
	if len(device) == 0 {
		return dynamic
	}
	out := make(map[lattice.Coord]float64, len(dynamic)+len(device))
	for q, r := range dynamic {
		out[q] = r
	}
	for q, r := range device {
		if r > out[q] {
			out[q] = r
		}
	}
	return out
}

// bootAdapt adapts patch i to the sampled device before cycle 0 (Siegel et
// al., arXiv 2211.08468): the device's defective data qubits inside the
// patch's tile are routed through the mitigation ladder at the device's
// error rate and handled by the strongest enabled structural tier —
// removal (Step) or a super-stabilizer bandage (Super), whose sites count
// toward Result.Bandages. Returns the adapted code (nil when nothing acted)
// and any deformation error (a device so broken the patch cannot boot). Boot
// adaptation is permanent: the adapted sites never enter the attribution
// bookkeeping, so recovery never reincorporates them.
func (r *run) bootAdapt(i int) (*code.Code, error) {
	if r.sys == nil || r.device == nil {
		return nil, nil
	}
	var sites []lattice.Coord
	for _, q := range r.device.DataDefects {
		if r.patches[i].spec.Contains(q) {
			sites = append(sites, q)
		}
	}
	if len(sites) == 0 {
		return nil, nil
	}
	eff, ok := r.mit.Effective(r.mit.Route(r.device.ErrorRate))
	if !ok {
		return nil, nil
	}
	switch eff {
	case defect.SeverityRemove:
		st, err := r.sys.Step(i, sites)
		if err != nil {
			return nil, err
		}
		return st.Code, nil
	case defect.SeveritySuper:
		st, err := r.sys.Super(i, sites)
		if err != nil {
			return nil, err
		}
		r.res.Bandages += len(r.sys.Bandaged(i))
		return st.Code, nil
	}
	return nil, nil // reweight-effective: the rate floor handles it
}

// dataSites filters an estimated region down to its data-qubit sites — the
// only sites the bandage construction acts on.
func dataSites(estimate []lattice.Coord) []lattice.Coord {
	out := make([]lattice.Coord, 0, len(estimate))
	for _, q := range estimate {
		if q.IsData() {
			out = append(out, q)
		}
	}
	return out
}

// deviceDefectCount is the DeviceDefects result field: how many sites the
// sampled device fabricated defective (identical across paired arms).
func deviceDefectCount(dev *defect.Device) int {
	if dev == nil {
		return 0
	}
	return len(dev.DataDefects) + len(dev.SyndromeDefects)
}
