package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/experiments"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/store"
	"surfdeformer/internal/traj"
)

// workers is the point-level worker count of every pass: the benchmark host
// has two CPUs, and each run is one process with at most two worker
// goroutines doing simulation work.
const workers = 2

// scale sizes a run. The work of the timed pass follows from --seconds
// alone, never from a clock, so two builds measured with the same
// arguments do the same work.
type scale struct {
	scanTrialsPerS float64 // traj-scan trajectories per arm per second
	shotsPerS      float64 // memory-sweep shots per point and grid seed per second
	layoutTrials   int     // trajectories per arm of the layout probe
	probeShots     int     // shots per DEM in the sampler/decoder probes
	probeReps      int     // repetitions of each timed single-call probe
	setups         int     // cold set-ups per run where each needs a process of its own
	quickSetups    int     // cold set-ups per run where set-up repeats in-process
}

// per scales a per-second rate to a run of the given length (at least 1).
func per(rate float64, seconds int) int {
	return max(1, int(rate*float64(seconds)+0.5))
}

// state is what a set-up hands to the pass: a fresh store and the
// workload's inputs, with the shared models already in the caches.
type state struct {
	store *store.Store
	seed  int64
	cfg   traj.Config              // traj-scan, with its shared DEM cache
	grid  []experiments.SweepPoint // memory-sweep
}

// output is what a pass produced, read back from its store.
type output struct {
	points    []store.Point
	hash      string // SHA-256 of the canonical rows
	attempted int
	failed    int
	// patchCycles is the simulated patch-cycles of the pass: ElapsedCycles
	// × patches per trajectory, or shots × rounds per sweep point.
	patchCycles float64
	// sums are the exact Result sums of a trajectory pass.
	sums map[string]int64
}

// workload is one input set of the benchmark.
type workload interface {
	name() string
	// setup creates the pass's store under dir, builds the config or grid,
	// and fills the DEM and decoding-graph caches with the models every arm
	// or point shares.
	setup(dir string, seed int64) (*state, error)
	// run executes one pass through the program's public entry point.
	run(st *state) error
	// summarize reads a pass's rows back: attempted points, simulated
	// patch-cycles and exact Result sums.
	summarize(st *state, out *output) error
	// check verifies a pass's rows beyond the golden hash: row counts, value
	// ranges and the pairing of arms.
	check(st *state, out *output) error
	// probeCodes returns the pristine codes and round count the per-layer
	// probes time sim.BuildDEM, decoder.NewGraph, Sampler.Shot and
	// UnionFind.DecodeToObs on.
	probeCodes() ([]*code.Code, int, error)
}

// newWorkload resolves a workload name.
func newWorkload(name string, sc scale, seconds int) (workload, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	switch name {
	case "traj-scan":
		return &trajWorkload{trials: per(sc.scanTrialsPerS, seconds)}, nil
	case "memory-sweep":
		return &sweepWorkload{shots: per(sc.shotsPerS, seconds)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want traj-scan or memory-sweep)", name)
}

// layoutConfig is the layout probe's scenario: two patches running a
// 12-operation QFT lattice-surgery schedule on a device whose qubits and
// couplers come out of fabrication defective at rate 0.02.
func layoutConfig() traj.Config {
	cfg := traj.QuickConfig()
	cfg.Layout = &traj.LayoutConfig{Patches: 2, Program: "qft", Ops: 12}
	cfg.Device = defect.NewDeviceModel(0.02)
	return cfg
}

// trajWorkload is a trajectory scan of traj.QuickConfig: every arm of
// DefaultTrajModes over the same trajectories, store-backed.
type trajWorkload struct {
	trials int
}

func (w *trajWorkload) name() string { return "traj-scan" }

// pristineCodes are the undeformed patches every arm boots on.
func pristineCodes(cfg traj.Config) ([]*code.Code, error) {
	n := 1
	if cfg.Layout != nil {
		n = cfg.Layout.Patches
	}
	lay := layout.New(layout.SurfDeformer, n, cfg.D, cfg.DeltaD)
	codes := make([]*code.Code, n)
	for i := range codes {
		origin := lattice.Coord{}
		if cfg.Layout != nil {
			origin = lay.PatchOrigin(i)
		}
		c, err := deform.NewSquareSpec(origin, cfg.D).Build()
		if err != nil {
			return nil, fmt.Errorf("building pristine patch %d: %w", i, err)
		}
		codes[i] = c
	}
	return codes, nil
}

// warmConfig returns cfg with a fresh DEM cache holding the models every
// arm and trajectory shares: the engine samples chunks of 2..ChunkRounds
// rounds on the pristine patches through that cache, while deformed codes
// build privately per trajectory.
func warmConfig(cfg traj.Config) (traj.Config, error) {
	cfg.Cache = sim.NewDEMCache(0)
	codes, err := pristineCodes(cfg)
	if err != nil {
		return cfg, err
	}
	nominal := noise.Uniform(cfg.PhysicalRate)
	for _, c := range codes {
		for r := 2; r <= cfg.ChunkRounds; r++ {
			dem, err := cfg.Cache.BuildDEM(c, nominal, r, cfg.Basis)
			if err != nil {
				return cfg, err
			}
			decoder.SharedGraph(dem)
		}
	}
	return cfg, nil
}

func (w *trajWorkload) setup(dir string, seed int64) (*state, error) {
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	cfg, err := warmConfig(traj.QuickConfig())
	if err != nil {
		st.Close()
		return nil, err
	}
	return &state{store: st, seed: seed, cfg: cfg}, nil
}

func (w *trajWorkload) run(st *state) error {
	opt := experiments.Options{Trials: w.trials, Seed: st.seed, PointWorkers: workers, Store: st.store}
	_, err := experiments.TrajectoryScan(opt, st.cfg, experiments.DefaultTrajModes())
	return err
}

// trajKey identifies one trajectory of a scan.
type trajKey struct {
	mode string
	j    int
}

// trajRows decodes a scan's rows into Results keyed by (arm, trajectory).
func trajRows(points []store.Point) (map[trajKey]traj.Result, error) {
	out := make(map[trajKey]traj.Result, len(points))
	for _, p := range points {
		if p.Kind != "traj" {
			return nil, fmt.Errorf("row %s has kind %q, want traj", p.Key, p.Kind)
		}
		k, err := trajKeyOf(p)
		if err != nil {
			return nil, err
		}
		var r traj.Result
		if err := json.Unmarshal(p.Payload, &r); err != nil {
			return nil, fmt.Errorf("row %s payload: %w", p.Key, err)
		}
		out[k] = r
	}
	return out, nil
}

// trajKeyOf reads a trajectory row's arm and index from its stored config.
func trajKeyOf(p store.Point) (trajKey, error) {
	var id struct {
		Mode string `json:"mode"`
		Traj int    `json:"traj"`
	}
	if err := json.Unmarshal(p.Config, &id); err != nil {
		return trajKey{}, fmt.Errorf("row %s config: %w", p.Key, err)
	}
	return trajKey{id.Mode, id.Traj}, nil
}

func (w *trajWorkload) check(st *state, out *output) error {
	rows, err := trajRows(out.points)
	if err != nil {
		return err
	}
	if len(out.points) != len(rows) {
		return fmt.Errorf("%d rows for %d trajectories", len(out.points), len(rows))
	}
	return checkResults(st.cfg, w.trials, rows)
}

// checkResults verifies every arm's Result of trajectories 0..trials-1.
func checkResults(cfg traj.Config, trials int, rows map[trajKey]traj.Result) error {
	modes := experiments.DefaultTrajModes()
	if len(rows) != len(modes)*trials {
		return fmt.Errorf("%d trajectories, want %d", len(rows), len(modes)*trials)
	}
	patches := 0
	if cfg.Layout != nil {
		patches = cfg.Layout.Patches
	}
	for j := 0; j < trials; j++ {
		first := rows[trajKey{modes[0].String(), j}]
		for _, m := range modes {
			r, ok := rows[trajKey{m.String(), j}]
			if !ok {
				return fmt.Errorf("no row for arm %s trajectory %d", m, j)
			}
			if r.Mode != m.String() || r.Horizon != cfg.Horizon {
				return fmt.Errorf("arm %s trajectory %d: mode %q horizon %d", m, j, r.Mode, r.Horizon)
			}
			// Only a severed patch (at boot, on a device too broken to
			// adapt around, or later) ends a trajectory early; severing
			// always counts as a failure.
			if r.Severed {
				if r.Failures < 1 || r.FirstFailCycle < 0 || r.FirstFailCycle > r.ElapsedCycles || r.ElapsedCycles > r.Horizon {
					return fmt.Errorf("arm %s trajectory %d: severed at cycle %d of %d with %d failures from cycle %d",
						m, j, r.ElapsedCycles, r.Horizon, r.Failures, r.FirstFailCycle)
				}
			} else if r.ElapsedCycles != r.Horizon || r.Epochs <= 0 {
				return fmt.Errorf("arm %s trajectory %d: elapsed %d of %d cycles in %d epochs", m, j, r.ElapsedCycles, r.Horizon, r.Epochs)
			}
			if r.Failures < 0 || r.ScoredCycles > r.ElapsedCycles*int64(max(1, patches)) {
				return fmt.Errorf("arm %s trajectory %d: %d failures over %d scored cycles", m, j, r.Failures, r.ScoredCycles)
			}
			if len(r.Patches) != patches {
				return fmt.Errorf("arm %s trajectory %d: %d patch results, want %d", m, j, len(r.Patches), patches)
			}
			bootSevered := r.Severed && r.ElapsedCycles == 0
			if patches > 0 && !bootSevered && (r.OpsTotal != cfg.Layout.Ops || r.OpsCompleted > r.OpsTotal) {
				return fmt.Errorf("arm %s trajectory %d: %d of %d ops, want %d scheduled", m, j, r.OpsCompleted, r.OpsTotal, cfg.Layout.Ops)
			}
			// Arms are paired: trajectory j of every arm faces the same
			// defect timeline and the same sampled device.
			if r.Events != first.Events || r.DeviceDefects != first.DeviceDefects {
				return fmt.Errorf("trajectory %d unpaired: arm %s has %d events/%d device defects, arm %s %d/%d",
					j, m, r.Events, r.DeviceDefects, modes[0], first.Events, first.DeviceDefects)
			}
		}
	}
	return nil
}

func (w *trajWorkload) summarize(st *state, out *output) error {
	out.attempted = len(experiments.DefaultTrajModes()) * w.trials
	rows, err := trajRows(out.points)
	if err != nil {
		return err
	}
	out.patchCycles, out.sums = resultSums(rows)
	return nil
}

// resultSums returns the simulated patch-cycles and the exact sums of the
// Results' closed-loop and router counters.
func resultSums(rows map[trajKey]traj.Result) (patchCycles float64, sums map[string]int64) {
	sums = map[string]int64{}
	for _, r := range rows {
		patchCycles += float64(r.ElapsedCycles) * float64(max(1, len(r.Patches)))
		sums["deformations"] += int64(r.Deformations)
		sums["bandages"] += int64(r.Bandages)
		sums["epochs"] += int64(r.Epochs)
		sums["stall_cycles"] += r.StallCycles
		sums["replans"] += int64(r.Replans)
		sums["merge_blocked_ops"] += int64(r.MergeBlockedOps)
	}
	return patchCycles, sums
}

func (w *trajWorkload) probeCodes() ([]*code.Code, int, error) {
	cfg := traj.QuickConfig()
	codes, err := pristineCodes(cfg)
	if err != nil {
		return nil, 0, err
	}
	return codes[:1], cfg.ChunkRounds, nil
}

// trajSeedKind is the stream family experiments.TrajectoryScan derives
// trajectory j's seed from: mc.DeriveSeed(scan seed, trajSeedKind, j). The
// traced run re-runs every (arm, seed) of the scan through traj.Run and
// requires each Result to equal the scan's stored row byte for byte, so a
// change to the derivation fails that check rather than timing other work.
const trajSeedKind = -14

// sweepWorkload is the paper's QEC-capability ablation: MemorySweep over
// the full DefaultSweepGrid at a fixed shot budget per point, store-backed.
// A pass sweeps the grid under sweepPatterns seeds, so its cost averages
// over that many sampled defect patterns per grid point.
type sweepWorkload struct {
	shots int
}

// sweepPatterns is the number of grid seeds a memory-sweep pass covers: one
// seed fixes one defect pattern per point, and with one the pass's
// throughput varied by 8% (quartile spread) across seeds.
const sweepPatterns = 3

func (w *sweepWorkload) name() string { return "memory-sweep" }

// seeds are the grid seeds of a pass with the given seed.
func (w *sweepWorkload) seeds(seed int64) []int64 {
	out := []int64{seed}
	for k := 1; k < sweepPatterns; k++ {
		out = append(out, mc.DeriveSeed(seed, int64(k)))
	}
	return out
}

func (w *sweepWorkload) options(seed int64) experiments.Options {
	opt := experiments.Defaults()
	opt.Seed = seed
	opt.Shots = w.shots
	opt.PointWorkers = workers
	return opt
}

func (w *sweepWorkload) setup(dir string, seed int64) (*state, error) {
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	grid := experiments.DefaultSweepGrid(w.options(seed))
	// One pass over the grid at one shot per point, without a store, fills
	// the process-wide DEM and graph caches with every point's models.
	for _, s := range w.seeds(seed) {
		opt := w.options(s)
		opt.Shots = 1
		if _, err := experiments.MemorySweep(opt, grid, experiments.SweepEngine{Workers: 1}); err != nil {
			st.Close()
			return nil, fmt.Errorf("warming the sweep's models: %w", err)
		}
	}
	return &state{store: st, seed: seed, grid: grid}, nil
}

func (w *sweepWorkload) run(st *state) error {
	var errs []error
	for _, s := range w.seeds(st.seed) {
		opt := w.options(s)
		opt.Store = st.store
		_, err := experiments.MemorySweep(opt, st.grid, experiments.SweepEngine{Workers: 1})
		// Isolated point failures leave the other rows committed; collect
		// reads them and counts the failures.
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (w *sweepWorkload) check(st *state, out *output) error {
	if len(out.points) == 0 || len(out.points) > out.attempted {
		return fmt.Errorf("%d rows for %d grid points", len(out.points), out.attempted)
	}
	for _, p := range out.points {
		if p.Kind != "sweep" || !p.Complete || p.Shots != w.shots {
			return fmt.Errorf("row %s: kind %q complete %v shots %d, want sweep/complete/%d", p.Key, p.Kind, p.Complete, p.Shots, w.shots)
		}
		if p.Failures < 0 || p.Failures > p.Shots {
			return fmt.Errorf("row %s: %d failures in %d shots", p.Key, p.Failures, p.Shots)
		}
	}
	return nil
}

func (w *sweepWorkload) summarize(st *state, out *output) error {
	out.attempted = sweepPatterns * len(st.grid)
	rounds := experiments.Defaults().Rounds
	for _, p := range out.points {
		out.patchCycles += float64(p.Shots) * float64(rounds)
	}
	return nil
}

func (w *sweepWorkload) probeCodes() ([]*code.Code, int, error) {
	var codes []*code.Code
	for _, d := range []int{5, 7, 9} {
		c, err := deform.NewSquareSpec(lattice.Coord{}, d).Build()
		if err != nil {
			return nil, 0, err
		}
		codes = append(codes, c)
	}
	return codes, experiments.Defaults().Rounds, nil
}

// openStore creates a fresh store in a new directory under dir, so no two
// passes ever share rows.
func openStore(dir string) (*store.Store, error) {
	d, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	return store.Open(filepath.Join(d, "rows.jsonl"))
}

// collect reads a finished pass back from its store and closes it.
func collect(w workload, st *state, runErr error) (*output, error) {
	failed, ok := failedPoints(runErr)
	if !ok {
		st.store.Close()
		return nil, runErr
	}
	out := &output{failed: failed}
	for _, k := range st.store.Keys() {
		p, _ := st.store.Get(k)
		out.points = append(out.points, p)
	}
	if err := st.store.Close(); err != nil {
		return nil, err
	}
	out.hash = canonicalHash(out.points)
	return out, w.summarize(st, out)
}

// failedPoints counts the isolated point failures (mc.PointErrors) that
// err carries; ok is false when err carries anything else.
func failedPoints(err error) (n int, ok bool) {
	if err == nil {
		return 0, true
	}
	if joined, isJoin := err.(interface{ Unwrap() []error }); isJoin {
		for _, e := range joined.Unwrap() {
			k, ok := failedPoints(e)
			if !ok {
				return 0, false
			}
			n += k
		}
		return n, true
	}
	var perrs *mc.PointErrors
	if errors.As(err, &perrs) && !errors.Is(err, mc.ErrCanceled) {
		return len(perrs.Failures), true
	}
	return 0, false
}

// canonicalHash is the SHA-256 of a store's merged rows in key order: key,
// kind, committed counts, completeness, canonical config and payload. Two
// stores hash equal exactly when they hold the same results, whatever the
// order in which workers appended them.
func canonicalHash(points []store.Point) string {
	sorted := append([]store.Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	h := sha256.New()
	for _, p := range sorted {
		fmt.Fprintf(h, "%s\t%s\t%d\t%d\t%v\t", p.Key, p.Kind, p.Shots, p.Failures, p.Complete)
		h.Write(p.Config)
		h.Write([]byte{'\t'})
		h.Write(p.Payload)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// payloads returns each trajectory row's stored payload.
func payloads(points []store.Point) (map[trajKey][]byte, error) {
	out := make(map[trajKey][]byte, len(points))
	for _, p := range points {
		k, err := trajKeyOf(p)
		if err != nil {
			return nil, err
		}
		out[k] = bytes.Clone(p.Payload)
	}
	return out, nil
}
