package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"surfdeformer"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/estimator"
	"surfdeformer/internal/store"
)

// updateMemoryGolden rewrites testdata/memory_golden.json from the current
// memory-run path. Every use must be recorded in CHANGES.md: a regenerated
// file means memory-experiment output or stored rows moved.
var updateMemoryGolden = flag.Bool("update-memory-golden", false,
	"rewrite testdata/memory_golden.json from the current memory-run path")

const memoryGoldenPath = "testdata/memory_golden.json"

// memoryGolden is the on-disk fingerprint file: the SHA-256 of each case's
// canonical JSON (json.Marshal of the rows or result), keyed "case/seed",
// plus "store/seed" for the bytes of the store file the store-backed cases
// of that seed wrote.
type memoryGolden struct {
	Results map[string]string `json:"results"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// memoryFingerprints runs every memory-experiment entry point at
// QuickOptions scale for seeds 1–2: the figure grids, the sweep (fixed
// budget, adaptive, and a resumed top-up of the fixed rows to twice the
// budget), a 2×2 Λ calibration and the public
// MemoryExperiment (untreated defect and adaptive). The store-backed cases
// of one seed share one store, run serially so its bytes are deterministic.
func memoryFingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for seed := int64(1); seed <= 2; seed++ {
		put := func(name string, v any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			out[fmt.Sprintf("%s/%d", name, seed)] = sha256Hex(b)
		}
		path := filepath.Join(t.TempDir(), "rows.jsonl")
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		opt := QuickOptions()
		opt.Seed = seed
		opt.Store = st

		fig11a, err := Fig11a(opt)
		put("fig11a", fig11a, err)
		fig14a, err := Fig14a(opt)
		put("fig14a", fig14a, err)
		fig14b, err := Fig14b(opt)
		put("fig14b", fig14b, err)
		grid := DefaultSweepGrid(opt)
		sweep, err := MemorySweep(opt, grid, SweepEngine{})
		put("sweep-fixed", sweep, err)
		sweepRSE, err := MemorySweep(opt, grid, SweepEngine{TargetRSE: 0.3, MaxShots: 4 * opt.Shots})
		put("sweep-rse", sweepRSE, err)
		grown := opt
		grown.Resume = true
		grown.Shots = 2 * opt.Shots
		sweepTopUp, err := MemorySweep(grown, grid, SweepEngine{})
		put("sweep-topup", sweepTopUp, err)
		model, pts, err := estimator.CalibrateOpts([]float64{4e-3, 8e-3}, []int{3, 5}, estimator.CalibrateOptions{
			Rounds: opt.Rounds, Shots: opt.Shots, Factory: decoder.UnionFindFactory(),
			Decoder: "uf", Seed: seed, Store: st,
		})
		put("calibrate", struct {
			Model  *estimator.LambdaModel
			Points []estimator.CalibrationPoint
		}{model, pts}, err)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("store/%d", seed)] = sha256Hex(raw)

		p, err := surfdeformer.NewPatch(5)
		if err != nil {
			t.Fatal(err)
		}
		untreated, err := p.MemoryExperiment(surfdeformer.MemoryOptions{
			Rounds: opt.Rounds, Shots: opt.Shots, Seed: seed,
			Defective: []surfdeformer.Coord{{Row: 5, Col: 5}},
		})
		put("patch-untreated", untreated, err)
		adaptive, err := p.MemoryExperiment(surfdeformer.MemoryOptions{
			PhysicalErrorRate: 5e-3, Rounds: opt.Rounds, Shots: opt.Shots, Seed: seed,
			TargetRSE: 0.2, MaxShots: 8 * opt.Shots,
		})
		put("patch-adaptive", adaptive, err)
	}
	return out
}

// TestMemoryGoldenFingerprints pins memory-experiment output: it fails when
// any case's result hash or any seed's store-file hash moves. A change that
// is meant to alter memory-run output regenerates the file with
// -update-memory-golden.
func TestMemoryGoldenFingerprints(t *testing.T) {
	got := memoryFingerprints(t)
	if *updateMemoryGolden {
		writeGolden(t, memoryGoldenPath, memoryGolden{Results: got})
		return
	}
	var want memoryGolden
	readGolden(t, memoryGoldenPath, "-update-memory-golden", &want)
	diffFingerprints(t, want.Results, got)
}
