package traj

// The trajectory engine body: N patches on a routing grid, each driven by
// the closed loop of the package doc, plus two layout-only mechanisms:
// defect events landing in the routing channels block grid cells for their
// duration, and a program-derived lattice-surgery schedule routes merge
// operations through the channels (route.Grid), which replan around
// blockage or stall (surgery.MergeBlocked). A lone patch (Config.Layout
// nil) is the 1-patch floorplan with neither mechanism: its events are not
// clipped to the tile, so no site of them becomes a channel event.
//
// The epoch model generalizes patch-wise: every patch samples the same
// chunk of rounds through its own DEM/sampler/decoder with its own shot
// stream, the per-round detector feed interleaves all patches, and the
// first fresh flag on ANY patch cuts the chunk for all of them — patches
// stay cycle-synchronized, which is what lets the surgery schedule and the
// channel bookkeeping sit at chunk boundaries.
//
// Determinism: the event timeline derives from one stream over the full
// layout bounding box; patch p's shots derive from DeriveSeed(seed,
// saltShots, p) — except patch 0, which keeps DeriveSeed(seed, saltShots),
// the stream every stored lone-patch row was computed with. Routing is
// RNG-free (see internal/route).

import (
	"fmt"
	"maps"
	"math/rand"
	"time"

	"surfdeformer/internal/code"
	"surfdeformer/internal/core"
	"surfdeformer/internal/defect"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/detect"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/layout"
	"surfdeformer/internal/mc"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
	"surfdeformer/internal/program"
	"surfdeformer/internal/route"
	"surfdeformer/internal/sim"
	"surfdeformer/internal/surgery"
)

// LayoutConfig parameterizes the layout-level engine.
type LayoutConfig struct {
	// Patches is the number of logical patches (row-major on a near-square
	// grid, layout.New placement).
	Patches int
	// Program names the benchmark whose CNOT stream the surgery schedule is
	// a prefix of: "simon", "rca", "qft", "grover", or "" for no schedule.
	Program string
	// Ops truncates the schedule (0 with a Program = 2·Patches, capped at
	// the program's CNOT count; 0 without a Program = no schedule).
	Ops int
}

// program resolves the benchmark named by the config (nil when none).
func (lc *LayoutConfig) program() (*program.Program, error) {
	switch lc.Program {
	case "":
		return nil, nil
	case "simon":
		return program.Simon(lc.Patches, 1), nil
	case "rca":
		return program.RCA(lc.Patches, 1), nil
	case "qft":
		return program.QFT(lc.Patches, 1), nil
	case "grover":
		return program.Grover(lc.Patches, 1), nil
	}
	return nil, fmt.Errorf("traj: unknown layout program %q", lc.Program)
}

// scheduleOps derives the lattice-surgery CNOT schedule: a deterministic
// round-robin over patch pairs (operation k acts on patch k mod N and a
// partner at a stride that advances every full rotation, so the schedule
// exercises all distances on the grid). Patch indices double as grid cell
// indices — layout placement and route.Grid share row-major order.
func (lc *LayoutConfig) scheduleOps() ([]route.CNOT, error) {
	prog, err := lc.program()
	if err != nil {
		return nil, err
	}
	n := lc.Patches
	opsN := lc.Ops
	if opsN == 0 {
		// Default schedule length: a slice of the program's CNOT stream
		// sized to the layout (full programs run for days of simulated
		// time; trajectories sample a representative excerpt). An explicit
		// Ops overrides this, including past the excerpt cap.
		if prog == nil {
			return nil, nil
		}
		opsN = 2 * n
		if int64(opsN) > prog.CX {
			opsN = int(prog.CX)
		}
	}
	ops := make([]route.CNOT, opsN)
	for k := 0; k < opsN; k++ {
		a := k % n
		b := (a + 1 + (k/n)%(n-1)) % n
		ops[k] = route.CNOT{Control: a, Target: b}
	}
	return ops, nil
}

// chanEvent is the channel-side residue of a defect event: the grid cells
// (and raw sites, for the surgery strip check) it blocks for its duration.
type chanEvent struct {
	start, end int64
	cells      []int
	sites      []lattice.Coord
}

// patchState is the per-patch slice of the engine's runtime state.
type patchState struct {
	spec        *deform.Spec // static arms only (sys == nil); live spec via sys otherwise
	curCode     *code.Code
	pristine    *code.Code
	events      []*event
	window      *detect.Window
	attributed  map[int32]*attribution
	shotRNG     *rand.Rand
	quietUntil  int64
	blocked     bool
	prevOverlay map[lattice.Coord]float64
	codeSites   map[lattice.Coord]bool
	sitesOf     *code.Code
	scratch     [][]int32 // roundStream scratch

	// Per-chunk staging, valid between the sample and score phases.
	byRound [][]int32
	overlay map[lattice.Coord]float64
	rates   map[lattice.Coord]float64
	failed  bool
	fresh   []int32
	dem     *sim.DEM // the chunk's sample DEM (for attribution)
}

// adopt installs patch i's code after a structural change (boot
// adaptation, deformation, bandage, recovery) and folds its distance into
// the patch's and the trajectory's minimum.
func (ps *patchState) adopt(res *Result, sys *core.System, i int, c *code.Code) {
	ps.curCode = c
	ps.blocked = sys.Blocked(i)
	if d := minDist(c); d < res.Patches[i].MinDistance {
		res.Patches[i].MinDistance = d
	}
	res.MinDistance = min(res.MinDistance, res.Patches[i].MinDistance)
}

// liveSpec returns the patch's current spec: the deformation unit's for
// deforming arms, the static one otherwise.
func (ps *patchState) liveSpec(sys *core.System, i int) *deform.Spec {
	if sys != nil {
		return sys.Unit(i).Spec()
	}
	return ps.spec
}

// splitEvents classifies the global event timeline: per-patch sub-events
// (sites inside a patch's static tile) and channel events — the channel
// residue of *removable* events, mapped to the grid cells they block (a
// mild drift excursion in a channel degrades merge fidelity but does not
// forbid routing; only severe defects steal channel qubits). Cell
// granularity follows the route.Grid model: a channel defect blocks the
// tile it lies in.
func splitEvents(lay *layout.Layout, specs []*deform.Spec, events []*event) (perPatch [][]*event, chans []*chanEvent) {
	perPatch = make([][]*event, len(specs))
	pitch2 := 2 * lay.Pitch()
	for _, e := range events {
		inPatch := make([]bool, len(e.sites))
		for p, spec := range specs {
			var sites []lattice.Coord
			var rates []float64
			for i, q := range e.sites {
				if spec.Contains(q) {
					inPatch[i] = true
					sites = append(sites, q)
					rates = append(rates, e.rates[min(i, len(e.rates)-1)])
				}
			}
			if len(sites) == 0 {
				continue
			}
			perPatch[p] = append(perPatch[p], &event{
				start: e.start, end: e.end, sites: sites, rates: rates,
				remove: e.remove, detectedAt: -1,
			})
		}
		if !e.remove {
			continue
		}
		var ce *chanEvent
		cellSeen := map[int]bool{}
		for i, q := range e.sites {
			if inPatch[i] {
				continue
			}
			if ce == nil {
				ce = &chanEvent{start: e.start, end: e.end}
			}
			ce.sites = append(ce.sites, q)
			r, c := q.Row/pitch2, q.Col/pitch2
			r = max(0, min(r, lay.Rows-1))
			c = max(0, min(c, lay.Cols-1))
			cell := r*lay.Cols + c
			if !cellSeen[cell] {
				cellSeen[cell] = true
				ce.cells = append(ce.cells, cell)
			}
		}
		if ce != nil {
			chans = append(chans, ce)
		}
	}
	return perPatch, chans
}

// surgerySchedule is the runtime state of the lattice-surgery program.
type surgerySchedule struct {
	ops         []route.CNOT
	done        []bool
	failedOnce  []bool // op missed at least one attempt (Replans accounting)
	completed   int
	attempts    int
	nextAttempt int64
	stepCycles  int64
	routeBuf    []int
}

// runLayout is the engine body behind Run, for a lone patch and for
// layouts alike.
func runLayout(cfg Config, mode Mode, seed int64) (*Result, error) {
	tr, tj, arm := cfg.Trace, cfg.TraceTraj, mode.String()
	cache := cfg.Cache
	if cache == nil {
		cache = sim.SharedDEMCache()
	}
	nominal := noise.Uniform(cfg.PhysicalRate)
	lone := cfg.Layout == nil
	n := 1
	if !lone {
		n = cfg.Layout.Patches
	}

	// Every arm shares the Surf-Deformer floorplan geometry (spacing d+Δd):
	// patch origins, channel widths, and hence the sampled event timeline
	// are identical across arms — the paired-comparison contract. Only the
	// per-patch policy and growth budget differ by arm.
	lay := layout.New(layout.SurfDeformer, n, cfg.D, cfg.DeltaD)
	var sys *core.System
	switch mode {
	case ModeUntreated, ModeReweightOnly:
		// static codes, no deformation unit
	case ModeASC, ModeSuperOnly:
		// Both arms keep a zero growth budget: ASC-S only shrinks, the
		// bandage arm only merges in place (its policy is inert — Step is
		// never routed to it).
		plan := &core.Plan{D: cfg.D, DeltaD: cfg.DeltaD, Layout: lay}
		sys = plan.NewSystemWith(deform.PolicyASC, deform.UniformBudget(0))
	default:
		plan := &core.Plan{D: cfg.D, DeltaD: cfg.DeltaD, Layout: lay}
		sys = plan.NewSystemWith(deform.PolicySurfDeformer, deform.UniformBudget(cfg.DeltaD))
	}
	mit, err := armMitigation(cfg, mode)
	if err != nil {
		return nil, err
	}
	if sys != nil {
		sys.SetMitigation(mit)
	}
	reweightFactor := cfg.ReweightFactor
	if reweightFactor == 0 {
		reweightFactor = DefaultReweightFactor
	}

	// Static patch tiles (event classification is by the undeformed tile
	// even while a patch is deformed) and the layout bounding box the event
	// timeline and the device are sampled over (for N=1, the patch bounds).
	specs := make([]*deform.Spec, n)
	patches := make([]*patchState, n)
	umin, umax := lattice.Coord{}, lattice.Coord{}
	for i := 0; i < n; i++ {
		specs[i] = deform.NewSquareSpec(lay.PatchOrigin(i), cfg.D)
		pmin, pmax := specs[i].Bounds()
		if i == 0 {
			umin = pmin
		}
		if pmax.Row > umax.Row {
			umax.Row = pmax.Row
		}
		if pmax.Col > umax.Col {
			umax.Col = pmax.Col
		}
	}

	eventRNG := rand.New(rand.NewSource(mc.DeriveSeed(seed, saltEvents)))
	events := sampleEvents(cfg, umin, umax, eventRNG)
	bounds := eventBoundaries(cfg, events)
	perPatch, chans := [][]*event{events}, []*chanEvent(nil)
	if !lone {
		perPatch, chans = splitEvents(lay, specs, events)
	}
	// One device covers the whole layout bounding box (channels included);
	// each patch boots against its own tile's slice of it.
	device := sampleDevice(cfg, umin, umax, seed)
	deviceRates := deviceRateMap(device)

	res := &Result{
		Mode:           mode.String(),
		Horizon:        cfg.Horizon,
		FirstFailCycle: -1,
		Patches:        make([]PatchResult, n),
		ChannelEvents:  len(chans),
		DeviceDefects:  deviceDefectCount(device),
	}
	res.Events = len(events)
	for _, e := range events {
		if !e.remove {
			continue
		}
		// RemoveEvents counts removable events reaching a patch — the
		// denominator of the detection fraction (channel strikes have no
		// syndrome signature to detect).
		touches := false
		for _, spec := range specs {
			for _, q := range e.sites {
				if spec.Contains(q) {
					touches = true
					break
				}
			}
			if touches {
				break
			}
		}
		if touches {
			res.RemoveEvents++
		}
	}

	for i := 0; i < n; i++ {
		ps := &patchState{spec: specs[i]}
		var err error
		if sys != nil {
			ps.curCode, err = sys.Unit(i).Code()
		} else {
			ps.curCode, err = specs[i].Build()
		}
		if err != nil {
			return nil, err
		}
		ps.pristine = ps.curCode
		res.Patches[i].MinDistance = minDist(ps.curCode)
		// Boot adaptation against the patch's slice of the device (after
		// `pristine` — the adapted code is seed-specific and must build
		// through the private cache). A device so broken the patch cannot
		// boot terminates the trajectory as failed from cycle 0.
		if bc, nb, err := bootAdapt(sys, i, mit, device, specs[i].Contains); err != nil {
			return terminateLayout(res, i, 0, err)
		} else if bc != nil {
			// A layout patch's minimum starts at its adapted code; a lone
			// patch's also covers the pristine code it booted from.
			if !lone {
				res.Patches[i].MinDistance = minDist(bc)
			}
			ps.adopt(res, sys, i, bc)
			res.Bandages += nb
		}
		ps.events = perPatch[i]
		ps.window = detect.NewWindow(cfg.Window, cfg.Threshold)
		ps.window.SetHalflife(cfg.Halflife)
		ps.attributed = map[int32]*attribution{}
		if i == 0 {
			ps.shotRNG = rand.New(rand.NewSource(mc.DeriveSeed(seed, saltShots)))
		} else {
			ps.shotRNG = rand.New(rand.NewSource(mc.DeriveSeed(seed, saltShots, int64(i))))
		}
		patches[i] = ps
		for _, e := range ps.events {
			res.Patches[i].Events++
			if e.remove {
				res.Patches[i].RemoveEvents++
			}
		}
		if i == 0 || res.Patches[i].MinDistance < res.MinDistance {
			res.MinDistance = res.Patches[i].MinDistance
		}
	}

	// The surgery schedule and its router. Attempts sit at multiples of the
	// lattice-surgery step (d cycles per operation); the chunk loop clamps
	// chunks to attempt boundaries while operations remain.
	var sched *surgerySchedule
	var grid *route.Grid
	if !lone {
		ops, err := cfg.Layout.scheduleOps()
		if err != nil {
			return nil, err
		}
		if len(ops) > 0 {
			sched = &surgerySchedule{
				ops: ops, done: make([]bool, len(ops)), failedOnce: make([]bool, len(ops)),
				stepCycles: int64(cfg.D), nextAttempt: int64(cfg.D),
			}
			grid = route.NewGrid(lay.Rows, lay.Cols)
			res.OpsTotal = len(ops)
		}
	}

	hotCache := sim.NewDEMCache(hotCacheLimit)
	memo := newDEMMemo()
	patcher := &sim.Patcher{}
	nextBound := 0
	cycle := int64(0)

	for cycle < cfg.Horizon {
		// Boundary processing: recovery confirmations, per patch.
		for nextBound < len(bounds) && bounds[nextBound].cycle <= cycle {
			b := bounds[nextBound]
			nextBound++
			if b.kind != boundRecover {
				continue
			}
			for i, ps := range patches {
				if sys == nil {
					expireAttributions(ps.events, ps.attributed, cycle)
					continue
				}
				// The recovery path mirrors the arm's structural tier:
				// removal arms reincorporate sites, the bandage arm releases
				// its super-stabilizers, anything else just expires the
				// bookkeeping.
				var recovered int
				var err error
				switch {
				case mit.Handles(defect.SeverityRemove):
					recovered, err = recoverSubsided(sys, i, ps.events, ps.attributed, cycle)
				case mit.Handles(defect.SeveritySuper):
					recovered, err = unbandageSubsided(sys, i, ps.events, ps.attributed, cycle)
				default:
					expireAttributions(ps.events, ps.attributed, cycle)
				}
				if err != nil {
					return terminateLayout(res, i, cycle, err)
				}
				if recovered > 0 {
					res.Recoveries++
					res.Patches[i].Recoveries++
					st, err := sys.Unit(i).Code()
					if err != nil {
						return terminateLayout(res, i, cycle, err)
					}
					ps.adopt(res, sys, i, st)
					tr.Emit(obs.TraceEvent{Type: obs.TraceRecover, Cycle: cycle, Arm: arm, Traj: tj,
						Patch: i, Sites: recovered, Distance: minDist(ps.curCode)})
				}
			}
		}

		// Lattice-surgery attempt at the step boundary: route as many
		// eligible operations as the channels allow.
		if sched != nil && sched.completed < len(sched.ops) && cycle >= sched.nextAttempt {
			attemptSurgery(res, sched, grid, sys, patches, chans, lay, cycle, tr, arm, tj)
			sched.nextAttempt = cycle + sched.stepCycles
		}

		rem := cfg.Horizon - cycle
		if rem < 2 {
			chanBlocked := channelBlockedAt(chans, cycle)
			for i, ps := range patches {
				advanceLayout(res, i, rem, ps.blocked, ps.curCode)
			}
			if chanBlocked {
				res.ChannelBlockedCycles += rem
			}
			cycle += rem
			break
		}
		chunk := int64(cfg.ChunkRounds)
		if nextBound < len(bounds) {
			if until := bounds[nextBound].cycle - cycle; until < chunk {
				chunk = until
			}
		}
		if sched != nil && sched.completed < len(sched.ops) {
			if until := sched.nextAttempt - cycle; until < chunk {
				chunk = until
			}
		}
		if chunk < 2 {
			chunk = 2
		}
		if chunk > rem {
			chunk = rem
		}
		chanBlocked := channelBlockedAt(chans, cycle)

		// Sample phase: every patch's chunk shot through its own cached
		// DEM/sampler/decoder path.
		var sampleNs, decodeNs int64
		failed := false
		for i, ps := range patches {
			sNs, dNs, err := samplePatchChunk(cfg, mit, ps, res, i, cycle, chunk, nominal, deviceRates,
				cache, hotCache, memo, patcher, reweightFactor, tr, arm, tj)
			if err != nil {
				return nil, err
			}
			sampleNs += sNs
			decodeNs += dNs
			failed = failed || ps.failed
			res.Epochs++
		}

		// Feed phase: interleave the per-round detector feeds; the first
		// fresh flag on any patch cuts the chunk for all of them.
		cut := int64(-1)
		anyFresh := false
		for r := int64(0); r < chunk && !anyFresh; r++ {
			for _, ps := range patches {
				ps.window.Feed(int(cycle+r), ps.byRound[r])
			}
			at := cycle + r
			if at < int64(cfg.Window) {
				continue
			}
			for _, ps := range patches {
				ps.fresh = nil
				if at < ps.quietUntil {
					continue
				}
				if ps.fresh = newFlags(ps.window, ps.attributed); len(ps.fresh) != 0 {
					anyFresh = true
					cut = r
				}
			}
		}
		for _, ps := range patches {
			ps.window.Trim()
		}

		if cut < 0 {
			for i, ps := range patches {
				res.ScoredCycles += chunk
				if ps.failed {
					res.Failures++
					res.Patches[i].Failures++
					if res.FirstFailCycle < 0 {
						res.FirstFailCycle = cycle + chunk
					}
				}
				accrueReweight(res, chunk, ps.overlay, ps.rates, ps.codeSites, cfg.PhysicalRate)
				advanceLayout(res, i, chunk, ps.blocked, ps.curCode)
			}
			if chanBlocked {
				res.ChannelBlockedCycles += chunk
			}
			cycle += chunk
			tr.Emit(obs.TraceEvent{Type: obs.TraceEpoch, Cycle: cycle, Arm: arm, Traj: tj,
				Cycles: chunk, Failed: failed, DecodeNs: decodeNs, SampleNs: sampleNs})
			continue
		}

		// Cut mid-chunk: partial chunks carry no failure verdict.
		elapsed := cut + 1
		if elapsed > chunk {
			elapsed = chunk
		}
		for i, ps := range patches {
			accrueReweight(res, elapsed, ps.overlay, ps.rates, ps.codeSites, cfg.PhysicalRate)
			advanceLayout(res, i, elapsed, ps.blocked, ps.curCode)
		}
		if chanBlocked {
			res.ChannelBlockedCycles += elapsed
		}
		cycle += elapsed
		tr.Emit(obs.TraceEvent{Type: obs.TraceEpoch, Cycle: cycle, Arm: arm, Traj: tj,
			Cycles: elapsed, DecodeNs: decodeNs, SampleNs: sampleNs})

		for i, ps := range patches {
			if len(ps.fresh) == 0 {
				continue
			}
			ps.quietUntil = cycle + int64(cfg.Window)
			before := res.Detected
			estimate := attribute(ps.dem, ps.fresh, ps.attributed, ps.events, cycle, res)
			res.Patches[i].Detected += res.Detected - before
			routeRemove := sys != nil && mit.Handles(defect.SeverityRemove)
			routeSuper := sys != nil && !routeRemove && mit.Handles(defect.SeveritySuper)
			if tr != nil {
				tr.Emit(obs.TraceEvent{Type: obs.TraceDetect, Cycle: cycle, Arm: arm, Traj: tj,
					Patch: i, Flags: len(ps.fresh), Region: len(estimate)})
				sev := "observe"
				switch {
				case routeRemove:
					sev = "remove"
				case routeSuper:
					sev = "super"
				}
				tr.Emit(obs.TraceEvent{Type: obs.TraceMitigate, Cycle: cycle, Arm: arm, Traj: tj,
					Patch: i, Severity: sev})
			}
			switch {
			case routeRemove:
				st, err := sys.Step(i, estimate)
				if err != nil {
					return terminateLayout(res, i, cycle, err)
				}
				ps.adopt(res, sys, i, st.Code)
				if len(st.Defects) > 0 || st.Enlarged {
					res.Deformations++
					res.Patches[i].Deformations++
					tr.Emit(obs.TraceEvent{Type: obs.TraceDeform, Cycle: cycle, Arm: arm, Traj: tj,
						Patch: i, Defects: len(st.Defects), Enlarged: st.Enlarged, Distance: minDist(ps.curCode)})
				}
			case routeSuper:
				st, err := sys.Super(i, dataSites(estimate))
				if err != nil {
					return terminateLayout(res, i, cycle, err)
				}
				if n := len(st.Defects); n > 0 {
					res.Bandages += n
					tr.Emit(obs.TraceEvent{Type: obs.TraceDeform, Cycle: cycle, Arm: arm, Traj: tj,
						Patch: i, Defects: n, Distance: minDist(st.Code)})
				}
				ps.adopt(res, sys, i, st.Code)
			}
		}
	}
	res.ElapsedCycles = cycle
	return res, nil
}

// samplePatchChunk runs one patch's DEM → sampler → decoder chunk and
// stages the results on the patch state. Under tracing it also returns the
// wall-clock cost of the chunk's shot (sample, then decode); both are zero
// otherwise and never enter the Result, since wall-clock is not
// deterministic.
func samplePatchChunk(cfg Config, mit deform.Mitigation, ps *patchState, res *Result, i int,
	cycle, chunk int64, nominal *noise.Model, deviceRates map[lattice.Coord]float64,
	cache, hotCache *sim.DEMCache, memo *demMemo,
	patcher *sim.Patcher, reweightFactor float64, tr *obs.Tracer, arm string, tj int) (sampleNs, decodeNs int64, err error) {
	if ps.sitesOf != ps.curCode {
		ps.codeSites = siteSet(ps.curCode)
		ps.sitesOf = ps.curCode
	}
	ps.rates = mergedRates(activeRates(ps.events, cycle), deviceRates)
	codeCache := cache
	if ps.curCode != ps.pristine {
		codeCache = hotCache
	}
	nominalDEM, nomKey, err := codeCache.BuildDEMKeyed(ps.curCode, nominal, int(chunk), cfg.Basis)
	if err != nil {
		return 0, 0, err
	}
	patchBase := nominalDEM
	if !patchDEMs {
		patchBase = nil
	}
	sampleDEM, sampleKey := nominalDEM, nomKey
	if len(ps.rates) > 0 {
		sampleDEM, sampleKey, err = hotCache.BuildDEMPatched(patcher, patchBase,
			ps.curCode, nominal.WithSiteRates(ps.rates), int(chunk), cfg.Basis)
		if err != nil {
			return 0, 0, err
		}
	}
	var overlay map[lattice.Coord]float64
	if mit.ReweightTier && cycle >= int64(cfg.Window) {
		overlay = reweightOverlay(ps.window, memo.obsStats(nomKey, nominalDEM), mit,
			cfg.PhysicalRate, reweightFactor, cfg.Threshold, cycle >= ps.quietUntil)
	}
	decodeDEM, decodeKey := nominalDEM, nomKey
	overlayBuilt := false
	if len(overlay) > 0 {
		preMiss := hotCache.Stats().Misses
		decodeDEM, decodeKey, err = hotCache.BuildDEMPatched(patcher, patchBase,
			ps.curCode, nominal.OverlaySiteRates(overlay), int(chunk), cfg.Basis)
		if err != nil {
			return 0, 0, err
		}
		if hotCache.Stats().Misses > preMiss {
			res.OverlayDEMBuilds++
			overlayBuilt = true
		}
	}
	if !maps.Equal(overlay, ps.prevOverlay) {
		res.Reweights++
		ps.prevOverlay = overlay
		if tr != nil {
			maxMult := 0.0
			for _, rate := range overlay {
				if m := rate / cfg.PhysicalRate; m > maxMult {
					maxMult = m
				}
			}
			tr.Emit(obs.TraceEvent{Type: obs.TraceReweight, Cycle: cycle, Arm: arm, Traj: tj,
				Patch: i, Overlay: len(overlay), MaxMult: maxMult, DEMBuild: overlayBuilt})
		}
	}
	ps.overlay = overlay
	dec := memo.decoder(decodeKey, decodeDEM, nominalDEM)
	sampler := memo.sampler(sampleKey, sampleDEM)
	var flagged []int32
	var obsFlip bool
	if tr != nil {
		t0 := time.Now()
		flagged, obsFlip = sampler.Shot(ps.shotRNG)
		t1 := time.Now()
		ps.failed = dec.DecodeToObs(flagged) != obsFlip
		sampleNs, decodeNs = t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds()
	} else {
		flagged, obsFlip = sampler.Shot(ps.shotRNG)
		ps.failed = dec.DecodeToObs(flagged) != obsFlip
	}
	ps.byRound = roundStream(sampleDEM, flagged, chunk, &ps.scratch)
	ps.dem = sampleDEM
	return sampleNs, decodeNs, nil
}

// advanceLayout accrues the per-cycle aggregates of patch i over an elapsed
// stretch.
func advanceLayout(res *Result, i int, cycles int64, blocked bool, c *code.Code) {
	if blocked {
		res.BlockedCycles += cycles
		res.Patches[i].BlockedCycles += cycles
	}
	res.DistanceCycles += int64(minDist(c)) * cycles
}

// channelBlockedAt reports whether any channel event blocks a cell at the
// cycle. Events change only at chunk-clamping boundaries, so the answer is
// constant within a chunk.
func channelBlockedAt(chans []*chanEvent, cycle int64) bool {
	for _, ce := range chans {
		if cycle >= ce.start && cycle < ce.end {
			return true
		}
	}
	return false
}

// attemptSurgery runs one routing attempt of the schedule: refresh the
// grid's blockage (channel defects plus patches spilled past their
// reserve), route the eligible operations edge-disjointly, and gate merges
// between adjacent patches on the surgery.MergeBlocked strip check against
// the live (deformed) specs.
func attemptSurgery(res *Result, sched *surgerySchedule, grid *route.Grid, sys *core.System,
	patches []*patchState, chans []*chanEvent, lay *layout.Layout, cycle int64,
	tr *obs.Tracer, arm string, tj int) {
	grid.ResetBlocked()
	for _, ce := range chans {
		if cycle < ce.start || cycle >= ce.end {
			continue
		}
		for _, cell := range ce.cells {
			grid.SetBlocked(cell, true)
		}
	}
	if sys != nil {
		for i := range patches {
			if sys.Blocked(i) {
				grid.SetBlocked(i, true)
			}
		}
	}

	// Eligibility: program order per patch — an operation waits until no
	// earlier pending operation uses either of its patches.
	var pending []route.CNOT
	var pendIdx []int
	busy := map[int]bool{}
	for k, op := range sched.ops {
		if sched.done[k] {
			continue
		}
		if busy[op.Control] || busy[op.Target] {
			busy[op.Control], busy[op.Target] = true, true
			continue
		}
		busy[op.Control], busy[op.Target] = true, true
		pending = append(pending, op)
		pendIdx = append(pendIdx, k)
	}
	executed := 0
	if len(pending) > 0 {
		sched.routeBuf = grid.RoutePaths(pending, sched.attempts, sched.routeBuf[:0])
		routedSet := make(map[int]bool, len(sched.routeBuf))
		for _, ri := range sched.routeBuf {
			routedSet[ri] = true
			k := pendIdx[ri]
			op := pending[ri]
			if blocked := mergeBlockedOp(sys, patches, chans, lay, op, cycle); blocked {
				res.MergeBlockedOps++
				sched.failedOnce[k] = true
				continue
			}
			sched.done[k] = true
			sched.completed++
			res.OpsCompleted++
			if sched.failedOnce[k] {
				res.Replans++
			}
			executed++
		}
		for ri, k := range pendIdx {
			if !routedSet[ri] && !sched.done[k] {
				sched.failedOnce[k] = true
			}
		}
		if executed == 0 {
			res.StallCycles += sched.stepCycles
		}
	}
	sched.attempts++
	tr.Emit(obs.TraceEvent{Type: obs.TraceSurgery, Cycle: cycle, Arm: arm, Traj: tj,
		Pending: len(pending), Routed: executed})
	if sched.completed == len(sched.ops) && !res.ProgramDone {
		res.ProgramDone = true
		res.ProgramDoneCycle = cycle
	}
}

// mergeBlockedOp applies the lattice-surgery strip check to an operation
// between horizontally adjacent patches: the merge must survive the active
// channel defects in the strip without severing or dropping below the
// operands' current minimum distance. Non-adjacent operations route through
// multiple channels and are governed by the grid alone.
func mergeBlockedOp(sys *core.System, patches []*patchState, chans []*chanEvent,
	lay *layout.Layout, op route.CNOT, cycle int64) bool {
	ra, ca := lay.PatchCell(op.Control)
	rb, cb := lay.PatchCell(op.Target)
	if ra != rb || abs(ca-cb) != 1 {
		return false
	}
	li, ri := op.Control, op.Target
	if ca > cb {
		li, ri = ri, li
	}
	left := patches[li].liveSpec(sys, li)
	right := patches[ri].liveSpec(sys, ri)
	_, lmax := left.Bounds()
	rmin, _ := right.Bounds()
	var strip []lattice.Coord
	for _, ce := range chans {
		if cycle < ce.start || cycle >= ce.end {
			continue
		}
		for _, q := range ce.sites {
			if q.Col > lmax.Col && q.Col < rmin.Col &&
				q.Row >= left.Origin.Row && q.Row <= lmax.Row {
				strip = append(strip, q)
			}
		}
	}
	minDistance := minDist(patches[li].curCode)
	if d := minDist(patches[ri].curCode); d < minDistance {
		minDistance = d
	}
	blocked, _ := surgery.MergeBlocked(left, right, strip, minDistance)
	return blocked
}

// terminateLayout ends a trajectory whose patch i severed: the remaining
// horizon is unprotected, so the trajectory counts as failed from the
// severing cycle onward. The error is consumed — a severed patch is a
// measured outcome of the arm (ASC-S severs more), not a simulation fault.
// Like MemorySweep's severed rows, this conservatively classifies *any*
// removal/enlargement/rebuild error as severing; deform exposes no
// sentinel distinguishing a disconnected patch from other failures.
func terminateLayout(res *Result, i int, cycle int64, _ error) (*Result, error) {
	res.Patches[i].Severed = true
	res.Patches[i].Failures++
	res.Patches[i].MinDistance = 0
	res.Severed = true
	res.Failures++
	if res.FirstFailCycle < 0 {
		res.FirstFailCycle = cycle
	}
	res.ElapsedCycles = cycle
	res.MinDistance = 0
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
