package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"surfdeformer/internal/experiments"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/traj"
)

// countNames are the program counts whose repeatability the traced run
// records: each is read on every pass that did the same work.
var countNames = []string{
	"sim.dem.builds", "sim.dem.patches", "sim.dem_cache.hits", "sim.dem_cache.misses",
	"decoder.graph.builds", "decoder.graph.rederives", "decoder.graph_cache.hits", "decoder.graph_cache.misses",
	"decoder.decodes", "mc.shots_committed", "store.rows_appended", "store.syncs",
}

// trajOnly are the per-layer metrics only a trajectory pass produces.
var trajOnly = []string{"traj.sample_s", "traj.decode_s", "traj.run_ms.p50", "traj.run_ms.p90", "traj.run_ms.count",
	"traj.self_s", "traj.deformations", "traj.bandages", "traj.epochs"}

// tracedRun runs the workload's pass once more with every recorder on —
// spans, the program's trajectory trace, registry deltas per span and the
// mutex profile — then, on traj-scan, the scan's trajectories through
// traj.Run one by one, and on every workload the layout probe and the
// single-call probes. It returns the per-layer metrics; the counts it
// compares between the untraced and the traced pass go to rep.
func tracedRun(w workload, cfg config, rep *report, dir string, pass passStat, setupObs map[string]int64) (map[string]float64, error) {
	m := map[string]float64{}
	rec := newRecorder()
	root := rec.begin("traced-run", 0)

	sp := rec.begin("setup", root.ID())
	st, err := w.setup(dir, cfg.seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	var traceBuf bytes.Buffer
	tw, isTraj := w.(*trajWorkload)
	if isTraj {
		st.cfg.Trace = obs.NewTracer(&traceBuf)
	}
	runtime.GC()
	gc0, cpu0, alloc0 := runtimeValues()
	before := obsValues()
	var wall time.Duration
	var runErr error
	err = withMutexProfile(func() error {
		sp := rec.begin(entryName(w), root.ID())
		runErr = w.run(st)
		wall = sp.end()
		var err error
		m["decoder.graph_cache.wait_s"], err = mutexWait("decoder.SharedGraphFrom")
		return err
	})
	if err != nil {
		return nil, err
	}
	traced := obsDelta(before, obsValues())
	gc1, cpu1, alloc1 := runtimeValues()
	out, err := collect(w, st, runErr)
	if err != nil {
		return nil, err
	}
	if out.failed > 0 || out.hash != pass.out.hash {
		return nil, fmt.Errorf("traced pass rows hash %s (%d failed), untraced %s", out.hash, out.failed, pass.out.hash)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(traceBuf.Bytes())); err != nil {
		return nil, fmt.Errorf("program trace: %w", err)
	}

	m["failed_frac"] = float64(rep.result.Failed) / float64(rep.result.Attempted)
	m["host.probe_ms"] = rep.HostMs
	m["setup.dem_builds"] = float64(setupObs["sim.dem.builds"])
	m["setup.dem_build_s"] = float64(setupObs["sim.dem.build_ns.sum"]) / 1e9
	m["experiments.scan_s"] = wall.Seconds()
	for _, k := range []string{"store.rows_appended", "store.syncs", "mc.shots_committed", "decoder.decodes"} {
		m[k] = float64(traced[k])
	}
	if d := cpu1 - cpu0; d > 0 {
		m["go.gc_cpu_frac"] = (gc1 - gc0) / d
	}
	m["go.alloc_mb"] = (alloc1 - alloc0) / 1e6
	m["bench.trace_overhead_frac"] = wall.Seconds()/pass.wall.Seconds() - 1

	counts := map[string][]int64{}
	for _, k := range countNames {
		counts[k] = []int64{pass.delta[k], traced[k]}
	}
	for k, v := range pass.out.sums {
		counts["result."+k] = []int64{v, out.sums[k]}
	}

	// The layer counts come from the pass whose calls the spans time: the
	// traj.Run pass on traj-scan, so that the four sim/decoder times and
	// traj.self_s add up to the summed traj.Run spans; the traced sweep on
	// memory-sweep. The traj.Run pass re-runs the first half of each arm's
	// trajectories, which keeps a traced run well inside its time limit.
	layer := traced
	if isTraj {
		want, err := payloads(out.points)
		if err != nil {
			return nil, err
		}
		cfgRun, err := warmConfig(traj.QuickConfig())
		if err != nil {
			return nil, err
		}
		dr, err := runDirect(cfgRun, max(1, tw.trials/2), cfg.seed, rec, root.ID(), "traj.Run", want)
		if err != nil {
			return nil, err
		}
		layer = dr.delta
		m["traj.deformations"] = float64(out.sums["deformations"])
		m["traj.bandages"] = float64(out.sums["bandages"])
		m["traj.epochs"] = float64(out.sums["epochs"])
		m["traj.run_ms.p50"] = quantile(dr.runMs, 0.5)
		m["traj.run_ms.p90"] = quantile(dr.runMs, 0.9)
		m["traj.run_ms.count"] = float64(len(dr.runMs))
		m["traj.sample_s"] = float64(dr.sampleNs) / 1e9
		m["traj.decode_s"] = float64(dr.decodeNs) / 1e9
		runS := 0.0
		for _, v := range dr.runMs {
			runS += v / 1e3
		}
		m["traj.self_s"] = runS - m["traj.sample_s"] - m["traj.decode_s"] -
			float64(layer["sim.dem.build_ns.sum"]+layer["sim.dem.patch_ns.sum"])/1e9
	} else {
		rep.Absent = append(rep.Absent, trajOnly...)
		for _, k := range trajOnly {
			m[k] = 0
		}
	}
	m["sim.dem.builds"] = float64(layer["sim.dem.builds"])
	m["sim.dem.build_s"] = float64(layer["sim.dem.build_ns.sum"]) / 1e9
	m["sim.dem.patches"] = float64(layer["sim.dem.patches"])
	m["sim.dem.patch_s"] = float64(layer["sim.dem.patch_ns.sum"]) / 1e9
	m["sim.dem_cache.hit_ratio"] = ratio(layer["sim.dem_cache.hits"], layer["sim.dem_cache.misses"])
	m["decoder.graph.builds"] = float64(layer["decoder.graph.builds"])
	m["decoder.graph.rederives"] = float64(layer["decoder.graph.rederives"])
	m["decoder.graph_cache.hit_ratio"] = ratio(layer["decoder.graph_cache.hits"], layer["decoder.graph_cache.misses"])

	if err := layoutProbe(m, cfg, rec, root.ID()); err != nil {
		return nil, fmt.Errorf("layout probe: %w", err)
	}
	probes, err := probeLayers(w, rec, root.ID(), cfg.seed, cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}

	rep.Counts, rep.Exact = counts, map[string]bool{}
	inexact := 0
	for k, vs := range counts {
		exact := true
		for _, v := range vs {
			exact = exact && v == vs[0]
		}
		rep.Exact[k] = exact
		if !exact {
			inexact++
		}
	}
	m["bench.inexact_counts"] = float64(inexact)

	root.end()
	if err := rec.checkTree(); err != nil {
		return nil, err
	}
	rep.Spans = filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name(), cfg.seed))
	if err := rec.write(rep.Spans); err != nil {
		return nil, err
	}
	return m, nil
}

// layoutProbe runs the layout scenario — two patches, a lattice-surgery
// schedule, a fabrication-defective device — for a few trajectories per arm
// through traj.Run, the only path into the layout engine, the router and
// lattice surgery, and boot-time bandages. Its per-trajectory cost varies
// too much across seeds for an end-to-end workload of the benchmark's
// length (see README.md), so it is measured here, per layer.
func layoutProbe(m map[string]float64, cfg config, rec *recorder, parent int) error {
	lcfg, err := warmConfig(layoutConfig())
	if err != nil {
		return err
	}
	n := cfg.scale.layoutTrials
	dr, err := runDirect(lcfg, n, cfg.seed, rec, parent, "layout.traj.Run", nil)
	if err != nil {
		return err
	}
	if err := checkResults(lcfg, n, dr.results); err != nil {
		return err
	}
	_, sums := resultSums(dr.results)
	m["layout.run_ms.p50"] = quantile(dr.runMs, 0.5)
	m["layout.run_ms.count"] = float64(len(dr.runMs))
	m["layout.bandages"] = float64(sums["bandages"])
	m["route.stall_cycles"] = float64(sums["stall_cycles"])
	m["route.replans"] = float64(sums["replans"])
	m["surgery.merge_blocked_ops"] = float64(sums["merge_blocked_ops"])
	return nil
}

// entryName is the span name of a pass's public entry point.
func entryName(w workload) string {
	if _, ok := w.(*sweepWorkload); ok {
		return "experiments.MemorySweep"
	}
	return "experiments.TrajectoryScan"
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runtimeValues reads the Go runtime's cumulative GC CPU, total CPU and
// allocated bytes.
func runtimeValues() (gcCPU, totalCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// directResult is what a traj.Run pass measured.
type directResult struct {
	runMs              []float64
	sampleNs, decodeNs int64
	results            map[trajKey]traj.Result
	delta              map[string]int64
}

// runDirect runs trajectories 0..trials-1 of every arm of a scan with the
// given seed through traj.Run on two workers, in the scan's order, timing
// every call as a span named name, with the program's trajectory trace in
// memory. When want is non-nil each Result must equal its stored row byte
// for byte.
func runDirect(cfg traj.Config, trials int, seed int64, rec *recorder, parent int, name string, want map[trajKey][]byte) (*directResult, error) {
	var traceBuf bytes.Buffer
	cfg.Trace = obs.NewTracer(&traceBuf)
	modes := experiments.DefaultTrajModes()
	n := len(modes) * trials
	runMs := make([]float64, n)
	results := make([]*traj.Result, n)
	errs := make([]error, n)
	runtime.GC()
	pass := rec.begin(name+"-pass", parent)
	before := obsValues()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				mode, j := modes[i/trials], i%trials
				c := cfg
				c.TraceTraj = j
				sp := rec.begin(name, pass.ID())
				res, err := traj.Run(c, mode, mc.DeriveSeed(seed, trajSeedKind, int64(j)))
				runMs[i] = ms(sp.end())
				results[i], errs[i] = res, err
				if err != nil || want == nil {
					continue
				}
				got, err := json.Marshal(res)
				if err != nil {
					errs[i] = err
				} else if k := (trajKey{mode.String(), j}); !bytes.Equal(got, want[k]) {
					errs[i] = fmt.Errorf("traj.Run(%s, trajectory %d) = %s, scan stored %s", mode, j, got, want[k])
				}
			}
		}()
	}
	wg.Wait()
	dr := &directResult{runMs: runMs, delta: obsDelta(before, obsValues()), results: map[trajKey]traj.Result{}}
	pass.end()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, r := range results {
		dr.results[trajKey{modes[i/trials].String(), i % trials}] = *r
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(traceBuf.Bytes())); err != nil {
		return nil, fmt.Errorf("program trace: %w", err)
	}
	sc := bufio.NewScanner(&traceBuf)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ev obs.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace line: %w", err)
		}
		if ev.Type == obs.TraceEpoch {
			dr.sampleNs += ev.SampleNs
			dr.decodeNs += ev.DecodeNs
		}
	}
	return dr, sc.Err()
}
