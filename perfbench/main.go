// Command perfbench is the repository's benchmark: it runs one workload
// through the program's public entry points, checks the results, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of an
// extra traced run) as one JSON object on the last line of its output.
//
//	bash perfbench/run.sh --workload traj-scan --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fullScale sizes the timed pass to about --seconds of wall time on a
// 2-CPU host.
var fullScale = scale{scanTrialsPerS: 3.6, shotsPerS: 6000, layoutTrials: 4, probeShots: 4000, probeReps: 3, setups: 3, quickSetups: 9}

// endToEndUnits and perLayerUnits list every metric the benchmark emits,
// with its unit. BENCHMARK.json names the same metrics; the self-test
// keeps them in step.
var endToEndUnits = map[string]string{
	"cycles_per_s": "cycles/s",
	"shots_per_s":  "shots/s",
	"cpu_s":        "s",
	"setup_s":      "s",
	"peak_live_mb": "MB",
}

var perLayerUnits = map[string]string{
	"failed_frac":                   "fraction",
	"retained_mb":                   "MB",
	"host.probe_ms":                 "ms",
	"setup.dem_builds":              "count",
	"setup.dem_build_s":             "s",
	"sim.dem.builds":                "count",
	"sim.dem.build_s":               "s",
	"sim.dem.patches":               "count",
	"sim.dem.patch_s":               "s",
	"sim.dem_cache.hit_ratio":       "ratio",
	"sim.build_dem_ms":              "ms",
	"decoder.graph.builds":          "count",
	"decoder.graph.rederives":       "count",
	"decoder.graph_cache.hit_ratio": "ratio",
	"decoder.graph_build_ms":        "ms",
	"decoder.graph_cache.wait_s":    "s",
	"sim.sample_ns_per_shot":        "ns",
	"decoder.decode_ns_per_shot":    "ns",
	"traj.sample_s":                 "s",
	"traj.decode_s":                 "s",
	"deform.step_ms":                "ms",
	"deform.bandage_ms":             "ms",
	"traj.run_ms.p50":               "ms",
	"traj.run_ms.p90":               "ms",
	"traj.run_ms.count":             "count",
	"traj.self_s":                   "s",
	"traj.deformations":             "count",
	"traj.bandages":                 "count",
	"traj.epochs":                   "count",
	"layout.run_ms.p50":             "ms",
	"layout.run_ms.count":           "count",
	"layout.bandages":               "count",
	"route.stall_cycles":            "count",
	"route.replans":                 "count",
	"surgery.merge_blocked_ops":     "count",
	"experiments.scan_s":            "s",
	"store.rows_appended":           "count",
	"store.syncs":                   "count",
	"mc.shots_committed":            "count",
	"decoder.decodes":               "count",
	"go.gc_cpu_frac":                "fraction",
	"go.alloc_mb":                   "MB",
	"bench.trace_overhead_frac":     "fraction",
	"bench.inexact_counts":          "count",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	scale    scale
}

// passStat is the measurement of the untraced pass.
type passStat struct {
	wall  time.Duration
	cpu   time.Duration
	delta map[string]int64 // program registry deltas over the pass
	out   *output
}

// report is everything a run measured, beyond the last-line result.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SetupS   []float64          `json:"setup_s_samples"`
	HostMs   float64            `json:"host_probe_ms"`
	Hash     string             `json:"rows_sha256"`
	Golden   string             `json:"golden"`
	Counts   map[string][]int64 `json:"counts,omitempty"`
	Exact    map[string]bool    `json:"exact,omitempty"`
	Absent   []string           `json:"absent,omitempty"`
	Spans    string             `json:"spans_file,omitempty"`
	result   result
	checkErr error
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "traj-scan or memory-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 40, "nominal wall seconds of the timed pass; sets its work")
	traceFlag := flag.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out-dir", ".bench_build/perfbench", "directory for stores and span files")
	setupOnly := flag.Bool("setup-only", false, "measure one cold set-up and print its seconds (the benchmark runs itself this way)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	cfg.scale = fullScale
	runtime.GOMAXPROCS(workers)

	if *setupOnly {
		s, err := setupOnce(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
		return
	}

	rep, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	if rep.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", rep.checkErr)
		os.Exit(1)
	}
}

// setupOnce measures one cold set-up of the workload in this process.
func setupOnce(cfg config) (float64, error) {
	w, err := newWorkload(cfg.workload, cfg.scale, cfg.seconds)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	st, err := w.setup(dir, cfg.seed)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), st.store.Close()
}

// childSetups measures n more cold set-ups, each in a fresh process of this
// binary, one at a time.
func childSetups(cfg config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.Itoa(cfg.seconds), "--out-dir", cfg.outDir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("child set-up: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("child set-up output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// benchmark runs the set-ups, the timed pass, the output check and, with
// cfg.trace, the traced run.
func benchmark(cfg config) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.scale, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{Workload: w.name(), Seed: cfg.seed, HostMs: hostProbe()}
	o0 := obsValues()
	t0 := time.Now()
	st, err := w.setup(dir, cfg.seed)
	rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupObs := obsDelta(o0, obsValues())

	runtime.GC()
	peak := watchLiveHeap()
	before := obsValues()
	c0 := cpuTime()
	t1 := time.Now()
	runErr := w.run(st)
	pass := passStat{wall: time.Since(t1), cpu: cpuTime() - c0}
	pass.delta = obsDelta(before, obsValues())
	// The heap still holds the program's caches: the process-wide DEM and
	// graph caches, and the pass's own shared DEM cache.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	peakMB := float64(peak.stop()) / 1e6
	runtime.KeepAlive(st)
	if pass.out, err = collect(w, st, runErr); err != nil {
		return nil, err
	}

	if err := moreSetups(w, cfg, dir, rep); err != nil {
		return nil, err
	}

	rep.Hash = pass.out.hash
	rep.result.Attempted, rep.result.Failed = pass.out.attempted, pass.out.failed
	want, hasGolden := goldenFor(cfg)
	rep.Golden = "none for this seed"
	if rep.checkErr = checkOutputs(w, st, pass.out, want); rep.checkErr == nil && hasGolden {
		rep.Golden = "match"
	}
	rep.result.Metrics = map[string]metric{}
	put := func(name string, v float64, units map[string]string) {
		rep.result.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	if !cfg.trace {
		wall := pass.wall.Seconds()
		put("cycles_per_s", pass.out.patchCycles/wall, endToEndUnits)
		put("shots_per_s", float64(pass.delta["decoder.decodes"])/wall, endToEndUnits)
		put("cpu_s", pass.cpu.Seconds(), endToEndUnits)
		put("setup_s", median(rep.SetupS), endToEndUnits)
		put("peak_live_mb", peakMB, endToEndUnits)
	} else {
		layers, err := tracedRun(w, cfg, rep, dir, pass, setupObs)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		layers["retained_mb"] = float64(mem.HeapAlloc) / 1e6
		for name, v := range layers {
			put(name, v, perLayerUnits)
		}
	}
	rep.result.Correct = rep.checkErr == nil
	return rep, nil
}

// moreSetups measures more cold set-ups, for a steadier median: in this
// process where a set-up fills caches of its own (quickSetups in all), in
// child processes where it fills the process-wide one, which a process can
// pay for only once (setups in all).
func moreSetups(w workload, cfg config, dir string, rep *report) error {
	if _, ok := w.(*sweepWorkload); ok {
		more, err := childSetups(cfg, cfg.scale.setups-len(rep.SetupS))
		rep.SetupS = append(rep.SetupS, more...)
		return err
	}
	for len(rep.SetupS) < cfg.scale.quickSetups {
		t0 := time.Now()
		st, err := w.setup(dir, cfg.seed)
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := st.store.Close(); err != nil {
			return err
		}
	}
	return nil
}

// liveHeapWatch tracks the largest live heap any GC cycle marked.
type liveHeapWatch struct {
	mu   sync.Mutex
	peak uint64
	done bool
}

// watchLiveHeap starts recording the live heap after every GC cycle: a
// finalizer on a fresh sentinel runs once per cycle and re-arms itself.
func watchLiveHeap() *liveHeapWatch {
	w := &liveHeapWatch{}
	w.arm()
	return w
}

func (w *liveHeapWatch) arm() {
	sentinel := new([16]byte)
	runtime.SetFinalizer(sentinel, func(*[16]byte) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.done {
			return
		}
		w.peak = max(w.peak, liveHeap())
		w.arm()
	})
}

// stop ends the watch, counting the live heap of the last completed cycle,
// and returns the peak in bytes.
func (w *liveHeapWatch) stop() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.done = true
	w.peak = max(w.peak, liveHeap())
	return w.peak
}

// liveHeap is the heap the last completed GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// golden holds the SHA-256 of the canonical rows for the default seed (1)
// and a held-out seed (1009) of every workload, at full scale and
// goldenSeconds. A program change that alters any stored row changes it.
var golden = map[string]map[int64]string{
	"traj-scan": {
		1:    "5426bfa52f8576175ff1a1aa88763d8699421e8eeafc5aa7007db45f67335310",
		1009: "8819cdc059388e64ac25798caa50e26b9f4f577c327d3228b38297094f137a36",
	},
	"memory-sweep": {
		1:    "429e4db1bc1e08681bd65c0e23d18c91289fbbdc1ae98c74ad84b42bdb139f38",
		1009: "fbd6e995d0df4c9f99695642c62b008088bf6024ec1f24c0e6e685200dc78dbb",
	},
}

// goldenSeconds is the run length the golden hashes were taken at; the
// work, and so the rows, scale with --seconds.
const goldenSeconds = 40

// goldenFor returns the golden rows hash of the run, if it has one.
func goldenFor(cfg config) (string, bool) {
	if cfg.scale != fullScale || cfg.seconds != goldenSeconds {
		return "", false
	}
	h, ok := golden[cfg.workload][cfg.seed]
	return h, ok
}

// checkOutputs verifies a pass: no failed point, rows that pass the
// workload's own checks, and, when want is not empty, rows whose canonical
// hash is want.
func checkOutputs(w workload, st *state, out *output, want string) error {
	if out.failed > 0 {
		return fmt.Errorf("%d of %d points failed", out.failed, out.attempted)
	}
	if err := w.check(st, out); err != nil {
		return err
	}
	if want != "" && out.hash != want {
		return fmt.Errorf("rows hash %s, golden %s", out.hash, want)
	}
	return nil
}

// printReport writes the human-readable summary, the run's detail as one
// JSON line, and the result as the last line.
func printReport(wr io.Writer, rep *report) {
	names := make([]string, 0, len(rep.result.Metrics))
	for k := range rep.result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(wr, "# %s seed=%d host_probe=%.2fms rows=%s golden=%s\n",
		rep.Workload, rep.Seed, rep.HostMs, rep.Hash, rep.Golden)
	fmt.Fprintf(wr, "# failed_frac=%g fraction (%d of %d points)\n",
		float64(rep.result.Failed)/float64(max(1, rep.result.Attempted)), rep.result.Failed, rep.result.Attempted)
	for _, k := range names {
		v := rep.result.Metrics[k]
		fmt.Fprintf(wr, "# %-32s %14.6g %s\n", k, v.Value, v.Unit)
	}
	if b, err := json.Marshal(rep); err == nil {
		fmt.Fprintf(wr, "# detail %s\n", b)
	}
	b, _ := json.Marshal(rep.result)
	fmt.Fprintf(wr, "%s\n", b)
}
