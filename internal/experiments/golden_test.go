package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/traj"
)

// updateTrajGolden rewrites testdata/traj_golden.json from the current
// engine. Every use must be recorded in CHANGES.md: a regenerated file
// means engine output moved, which is exactly what trajEngineRev exists to
// flag in the store identity.
var updateTrajGolden = flag.Bool("update-traj-golden", false,
	"rewrite testdata/traj_golden.json from the current trajectory engine")

const trajGoldenPath = "testdata/traj_golden.json"

// trajGolden is the on-disk fingerprint file: the engine revision the
// hashes were produced under, and the SHA-256 of each matrix cell's
// canonical Result JSON (json.Marshal of traj.Result), keyed
// "family/arm/seed".
type trajGolden struct {
	Rev     int               `json:"rev"`
	Results map[string]string `json:"results"`
}

// goldenFamilies is the fingerprint matrix's config axis: the single-patch
// scenarios every store row is built from, plus a 1-patch layout, a 2-patch
// layout with a lattice-surgery schedule, and a 4-patch qft layout on a 2%
// device — the family whose cells exercise surgery stalls, replans,
// strip-check rejections and per-tile boot adaptation.
func goldenFamilies() []struct {
	name string
	cfg  traj.Config
} {
	quick := traj.QuickConfig()
	device := traj.QuickConfig()
	device.Device = defect.NewDeviceModel(0.08)
	halflife := traj.QuickConfig()
	halflife.Halflife = 10
	lay1 := traj.QuickConfig()
	lay1.Layout = &traj.LayoutConfig{Patches: 1}
	lay2 := traj.QuickConfig()
	lay2.Layout = &traj.LayoutConfig{Patches: 2, Program: "simon"}
	lay4 := traj.QuickConfig()
	lay4.Layout = &traj.LayoutConfig{Patches: 4, Program: "qft"}
	lay4.Device = defect.NewDeviceModel(0.02)
	return []struct {
		name string
		cfg  traj.Config
	}{
		{"quick", quick},
		{"drift-only", traj.DriftOnlyConfig()},
		{"device-8pct", device},
		{"halflife-10", halflife},
		{"layout-1", lay1},
		{"layout-2-simon", lay2},
		{"layout-4-qft-device", lay4},
	}
}

// trajFingerprints runs the whole matrix (families × DefaultTrajModes ×
// seeds 1–3) and returns each cell's Result hash.
func trajFingerprints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	var mu sync.Mutex
	t.Run("matrix", func(t *testing.T) {
		for _, fam := range goldenFamilies() {
			t.Run(fam.name, func(t *testing.T) {
				t.Parallel()
				cfg := fam.cfg
				cfg.Cache = sim.NewDEMCache(0)
				for _, mode := range DefaultTrajModes() {
					for seed := int64(1); seed <= 3; seed++ {
						res, err := traj.Run(cfg, mode, seed)
						if err != nil {
							t.Fatalf("%s seed %d: %v", mode, seed, err)
						}
						b, err := json.Marshal(res)
						if err != nil {
							t.Fatal(err)
						}
						sum := sha256.Sum256(b)
						mu.Lock()
						out[fmt.Sprintf("%s/%s/%d", fam.name, mode, seed)] = hex.EncodeToString(sum[:])
						mu.Unlock()
					}
				}
			})
		}
	})
	return out
}

// TestTrajGoldenFingerprints pins trajectory-engine output to
// trajEngineRev: it fails when any Result hash in the matrix moves, and
// when the file's revision differs from trajEngineRev. A change that
// alters engine output must bump the revision (so resumed stores
// recompute instead of mixing semantics) and regenerate the file with
// -update-traj-golden.
func TestTrajGoldenFingerprints(t *testing.T) {
	got := trajFingerprints(t)
	if t.Failed() {
		return
	}
	if *updateTrajGolden {
		var old *trajGolden
		if b, err := os.ReadFile(trajGoldenPath); err == nil {
			old = new(trajGolden)
			if err := json.Unmarshal(b, old); err != nil {
				t.Fatalf("%s: %v", trajGoldenPath, err)
			}
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := checkTrajGoldenUpdate(old, trajEngineRev, got); err != nil {
			t.Fatalf("refusing to rewrite %s: %v", trajGoldenPath, err)
		}
		writeGolden(t, trajGoldenPath, trajGolden{Rev: trajEngineRev, Results: got})
		return
	}
	var want trajGolden
	readGolden(t, trajGoldenPath, "-update-traj-golden", &want)
	if want.Rev != trajEngineRev {
		t.Errorf("%s was generated at engine rev %d, trajEngineRev is %d: regenerate it with -update-traj-golden",
			trajGoldenPath, want.Rev, trajEngineRev)
	}
	if moved := diffFingerprints(t, want.Results, got); moved > 0 {
		t.Errorf("%d trajectory fingerprints moved: engine output changed; bump trajEngineRev and regenerate with -update-traj-golden",
			moved)
	}
}

// checkTrajGoldenUpdate decides whether -update-traj-golden may replace the
// existing file old (nil when there is none) with the hashes got at engine
// revision rev. At an unchanged revision only new keys may appear: a moved
// or dropped hash means engine output changed without a revision bump. A
// bumped revision must move at least one existing hash, or the bump
// invalidates every stored row for nothing.
func checkTrajGoldenUpdate(old *trajGolden, rev int, got map[string]string) error {
	if old == nil {
		return nil
	}
	var moved []string
	for k, h := range old.Results {
		if got[k] != h {
			moved = append(moved, k)
		}
	}
	sort.Strings(moved)
	switch {
	case old.Rev == rev && len(moved) > 0:
		return fmt.Errorf("%d fingerprints moved at unchanged rev %d (first %s): bump trajEngineRev", len(moved), rev, moved[0])
	case old.Rev != rev && len(moved) == 0:
		return fmt.Errorf("trajEngineRev went %d → %d but no fingerprint moved: keep rev %d", old.Rev, rev, old.Rev)
	}
	return nil
}

// TestCheckTrajGoldenUpdate pins the -update-traj-golden guard.
func TestCheckTrajGoldenUpdate(t *testing.T) {
	old := &trajGolden{Rev: 4, Results: map[string]string{"a": "1", "b": "2"}}
	for _, tc := range []struct {
		name string
		old  *trajGolden
		rev  int
		got  map[string]string
		ok   bool
	}{
		{"no file", nil, 4, map[string]string{"a": "1"}, true},
		{"unchanged", old, 4, map[string]string{"a": "1", "b": "2"}, true},
		{"new key at same rev", old, 4, map[string]string{"a": "1", "b": "2", "c": "3"}, true},
		{"moved at same rev", old, 4, map[string]string{"a": "1", "b": "9"}, false},
		{"dropped at same rev", old, 4, map[string]string{"a": "1"}, false},
		{"bump that moved a hash", old, 5, map[string]string{"a": "1", "b": "9"}, true},
		{"bump that moved nothing", old, 5, map[string]string{"a": "1", "b": "2", "c": "3"}, false},
	} {
		if err := checkTrajGoldenUpdate(tc.old, tc.rev, tc.got); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// writeGolden rewrites a fingerprint file from v.
func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// readGolden decodes a fingerprint file into v; flag names the test flag
// that regenerates it.
func readGolden(t *testing.T, path, flag string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with %s)", err, flag)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// diffFingerprints reports every key whose hash differs between the golden
// and the current run (a key missing on either side included) and returns
// how many moved.
func diffFingerprints(t *testing.T, want, got map[string]string) int {
	t.Helper()
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	moved := 0
	for _, k := range keys {
		if got[k] != want[k] {
			moved++
			t.Errorf("%s: fingerprint moved (golden %.12s, now %.12s)", k, want[k], got[k])
		}
	}
	return moved
}
