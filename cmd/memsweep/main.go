// Command memsweep sweeps memory-experiment logical error rates over code
// distance and physical error rate — the raw data behind threshold plots
// and the Λ-model calibration. The sweep is parallel at two levels and
// resumable: -point-workers runs whole (d, p) points concurrently while
// -workers shards shots inside each point (neither changes results — every
// stream derives from the seed and the point's content), -target-rse stops
// each point as soon as its failure rate is known to the requested
// precision, and -store/-resume persist completed points to a JSONL result
// store so an interrupted sweep re-invoked with -resume computes only the
// missing points and prints a table byte-identical to an uninterrupted
// run. See EXPERIMENTS.md ("Resuming an interrupted sweep") and
// DESIGN.md §7 for the store format and determinism contract.
//
// The sweep is crash-safe (DESIGN.md §11): SIGINT/SIGTERM drains in-flight
// points, syncs the store, prints a resume hint and exits 3; a worker
// panic or exhausted transient retry is isolated to its point (remaining
// points complete, the failure is reported, exit 3); -store-sync selects
// the fsync policy. Exit codes: 0 complete, 1 error, 2 usage, 3
// interrupted or partial.
//
// Usage:
//
//	memsweep -d 3,5,7 -p 2e-3,4e-3,6e-3 -rounds 6 -shots 20000
//	memsweep -d 3,5,7 -p 2e-3 -target-rse 0.1 -max-shots 2000000 -workers 8
//	memsweep -d 3,5,7,9 -p 2e-3,4e-3 -point-workers 4 -store sweep.jsonl -resume
//	memsweep -store sweep.jsonl -store-ls
//	memsweep -store sweep.jsonl -store-gc
package main

import (
	"flag"
	"fmt"
	"os"

	"surfdeformer/internal/cliutil"
	"surfdeformer/internal/code"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/store"
)

// pointSalt keeps memsweep's per-point seed streams disjoint from engine
// shard streams and from the experiments package's stream kinds.
const pointSalt = int64(-20)

// main is a thin exit-code shim: all work happens in run so that its
// deferred cleanups — CPU-profile flush, heap-profile write, store
// sync+close — execute on every path, including errors and interrupts
// (os.Exit would skip them). Usage errors exit 2 via the flag package;
// run errors map to the documented codes (interrupted/partial → 3).
func main() {
	os.Exit(cliutil.ReportRunError("memsweep", os.Stderr, run()))
}

func run() (err error) {
	dArg := flag.String("d", "3,5,7", "comma-separated code distances")
	pArg := flag.String("p", "2e-3,4e-3,6e-3", "comma-separated physical error rates")
	rounds := flag.Int("rounds", 6, "QEC rounds")
	shots := flag.Int("shots", 20000, "shots per point (exact budget unless -target-rse is set)")
	seed := flag.Int64("seed", 1, "RNG seed")
	dec := flag.String("decoder", "uf", "decoder: uf, greedy, exact")
	workers := flag.Int("workers", 0, "Monte-Carlo worker pool size within a point (0 = all CPUs; never changes results)")
	pointWorkers := flag.Int("point-workers", 1, "(d, p) points run concurrently (never changes results)")
	targetRSE := flag.Float64("target-rse", 0, "stop each point at this relative standard error (0 = fixed budget)")
	maxShots := flag.Int("max-shots", 0, "shot cap when -target-rse is set (0 = -shots)")
	storePath := flag.String("store", "", "persist per-point results to this JSONL store")
	resume := flag.Bool("resume", false, "serve points already complete in -store instead of recomputing")
	storeSync := cliutil.AddStoreSyncFlag()
	storeLS := flag.Bool("store-ls", false, "list the contents of -store and exit")
	storeGC := flag.Bool("store-gc", false, "compact -store (merge segments, drop corrupt lines) and exit")
	progress := flag.Bool("progress", false, "report sweep progress (points done, shots/sec, ETA) on stderr while running")
	prof := cliutil.AddProfileFlags()
	flag.Parse()

	// SIGINT/SIGTERM cancel the context: the point pool stops dispatching,
	// in-flight points drain at shard boundaries, and the deferred store
	// Close syncs everything committed before the process exits.
	ctx, stopSignals := cliutil.SignalContext("memsweep", os.Stderr)
	defer stopSignals()

	stop, err := prof.Start("memsweep")
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	var st *store.Store
	if *storePath != "" {
		st, err = cliutil.OpenStore("memsweep", *storePath, *storeSync)
		if err != nil {
			return err
		}
		defer st.Close()
	}
	if *storeLS || *storeGC {
		return cliutil.StoreMaintenance("memsweep", st, os.Stdout, *storeLS, *storeGC)
	}

	ds, err := cliutil.ParseInts(*dArg)
	if err != nil {
		return err
	}
	ps, err := cliutil.ParseFloats(*pArg)
	if err != nil {
		return err
	}
	var factory sim.DecoderFactory
	switch *dec {
	case "uf":
		factory = decoder.UnionFindFactory()
	case "greedy":
		factory = decoder.GreedyFactory()
	case "exact":
		factory = decoder.ExactFactory(14)
	default:
		return fmt.Errorf("unknown decoder %q", *dec)
	}
	budget := *shots
	if *targetRSE > 0 && *maxShots > 0 {
		budget = *maxShots
	}

	type point struct {
		d int
		p float64
	}
	type result struct {
		z, x     *sim.MemoryResult
		combined float64
		stored   bool
	}
	var grid []point
	for _, d := range ds {
		for _, p := range ps {
			grid = append(grid, point{d, p})
		}
	}
	results := make([]result, len(grid))
	prog := cliutil.NewProgress(*progress, "shots", "mc.shots_committed")
	prog.Begin(len(grid))
	runErr := mc.ForEach(ctx, *pointWorkers, len(grid), func(i int) error {
		defer prog.PointDone()
		pt := grid[i]
		c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, pt.d))
		z, x, combined, stored, rerr := sim.RunMemoryBoth(c, noise.Uniform(pt.p), nil, sim.RunOptions{
			Rounds:    *rounds,
			Factory:   factory,
			Shots:     budget,
			Workers:   *workers,
			TargetRSE: *targetRSE,
			Seed:      mc.DeriveSeed(*seed, pointSalt, int64(pt.d), rateStream(pt.p)),
			Ctx:       ctx,
			Store: sim.StoreOptions{
				Store:  st,
				Resume: *resume,
				Kind:   "memsweep",
				Config: memsweepConfig{D: pt.d, P: pt.p, Rounds: *rounds,
					Decoder: *dec, Seed: *seed, TargetRSE: *targetRSE},
			},
		})
		if rerr != nil {
			return rerr
		}
		results[i] = result{z, x, combined, stored}
		return nil
	})
	prog.End()
	if runErr != nil && cliutil.ExitCode(runErr) != cliutil.ExitPartial {
		return runErr
	}

	// Completed points are rendered even after an interrupt or isolated
	// point failures — each row is independent and already committed.
	fmt.Printf("%-8s %-10s %-14s %-14s %-14s %-16s %-12s\n",
		"d", "p", "λZ/cycle", "λX/cycle", "λ/cycle", "failures", "shots")
	computed, skipped, missing := 0, 0, 0
	for i, pt := range grid {
		r := results[i]
		if r.z == nil {
			missing++
			continue
		}
		if r.stored {
			skipped++
		} else {
			computed++
		}
		stopped := ""
		if r.z.EarlyStopped || r.x.EarlyStopped {
			stopped = "*"
		}
		fmt.Printf("%-8d %-10.1e %-14.3e %-14.3e %-14.3e %-16s %d+%d%s\n",
			pt.d, pt.p, r.z.PerRound, r.x.PerRound, r.combined,
			fmt.Sprintf("%d+%d", r.z.Failures, r.x.Failures), r.z.Shots, r.x.Shots, stopped)
	}
	if *targetRSE > 0 {
		fmt.Println("\n(* = point stopped early at the target RSE)")
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "memsweep: computed %d point(s), skipped %d (store %s)\n",
			computed, skipped, *storePath)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "memsweep: partial results — %d of %d point(s) missing from the table\n",
			missing, len(grid))
		cliutil.ResumeHint("memsweep", os.Stderr, *storePath, *resume)
	}
	cliutil.WarnDegraded("memsweep", os.Stderr)
	return runErr
}

// memsweepConfig is the store identity of one (d, p) point. The shot
// budget is absent by design — it accumulates across sessions (DESIGN.md
// §7).
type memsweepConfig struct {
	D         int     `json:"d"`
	P         float64 `json:"p"`
	Rounds    int     `json:"rounds"`
	Decoder   string  `json:"decoder"`
	Seed      int64   `json:"seed"`
	TargetRSE float64 `json:"target_rse,omitempty"`
}

// rateStream maps a physical rate to a stream index (content-derived, so
// a point's streams do not depend on its grid position).
func rateStream(p float64) int64 {
	return int64(p * 1e12)
}
