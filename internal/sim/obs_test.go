package sim_test

import (
	"reflect"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/sim"
)

// A memory experiment run while the obs registry is concurrently
// snapshotted and reset must stay bit-identical to an undisturbed run —
// the DEM-build and cache counters feed nothing back into sampling or
// decoding. (External test package: the real union-find decoder imports
// sim, so this cannot live inside it.)
func TestRunMemoryObservationInvariant(t *testing.T) {
	c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, 3))
	model := noise.Uniform(3e-3)
	opts := sim.RunOptions{
		Rounds: 3, Basis: lattice.ZCheck, Shots: 4000, Workers: 4, Seed: 21,
		Factory: decoder.UnionFindFactory(),
	}
	baseline, _, err := sim.RunMemory(c, model, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				obs.Default().Snapshot()
				obs.Default().Reset()
			}
		}
	}()
	observed, _, err := sim.RunMemory(c, model, nil, opts)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed, baseline) {
		t.Errorf("run under registry churn diverges:\n observed: %+v\n baseline: %+v", observed, baseline)
	}
}
