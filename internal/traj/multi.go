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
	"math"
	"math/rand"
	"slices"
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
	if lc == nil {
		return nil, nil // a lone patch has no surgery schedule
	}
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

func (ce *chanEvent) activeAt(cycle int64) bool { return cycle >= ce.start && cycle < ce.end }

// patchState is the per-patch slice of the engine's runtime state.
type patchState struct {
	spec        *deform.Spec // the static tile; also the live spec of arms without a system
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

	// Per-chunk staging, valid between sampleChunk and settle.
	byRound [][]int32
	overlay map[lattice.Coord]float64
	rates   map[lattice.Coord]float64
	failed  bool
	fresh   []int32
	dem     *sim.DEM // the chunk's sample DEM (for attribution)
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
// tile it lies in. removeEvents counts the removable events reaching a
// patch — the denominator of the detection fraction (channel strikes have
// no syndrome signature to detect).
func splitEvents(lay *layout.Layout, specs []*deform.Spec, events []*event) (perPatch [][]*event, chans []*chanEvent, removeEvents int) {
	perPatch = make([][]*event, len(specs))
	pitch2 := 2 * lay.Pitch()
	for _, e := range events {
		inPatch := make([]bool, len(e.sites))
		touches := false
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
			touches = true
			perPatch[p] = append(perPatch[p], &event{
				start: e.start, end: e.end, sites: sites, rates: rates,
				remove: e.remove, detectedAt: -1,
			})
		}
		if !e.remove {
			continue
		}
		if touches {
			removeEvents++
		}
		var ce *chanEvent
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
			if cell := r*lay.Cols + c; !slices.Contains(ce.cells, cell) {
				ce.cells = append(ce.cells, cell)
			}
		}
		if ce != nil {
			chans = append(chans, ce)
		}
	}
	return perPatch, chans, removeEvents
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

// active reports whether operations remain (false without a schedule).
func (s *surgerySchedule) active() bool { return s != nil && s.completed < len(s.ops) }

// run is one trajectory's engine state: the resolved configuration and
// arm, the per-trajectory caches, the floorplan with its channels and
// surgery schedule, the patches, and the clock. Each stage of the loop is
// a method on it.
type run struct {
	cfg            Config
	seed           int64
	lone           bool // Config.Layout nil: events keep every site, no channels
	mit            deform.Mitigation
	tier           defect.Severity // structural tier: Remove, Super, or Reweight for none
	reweightFactor float64
	sys            *core.System // nil for arms that never change their code
	res            *Result

	cache, hotCache *sim.DEMCache
	memo            *demMemo
	patcher         *sim.Patcher
	nominal         *noise.Model
	device          *defect.Device
	deviceRates     map[lattice.Coord]float64

	tr  *obs.Tracer
	arm string
	tj  int

	lay     *layout.Layout
	chans   []*chanEvent
	sched   *surgerySchedule
	grid    *route.Grid
	patches []*patchState

	bounds    []boundary
	nextBound int
	cycle     int64

	// Chunk staging: set by sampleChunk, consumed by settle. Wall-clock
	// shot timings are measured only under tracing.
	staged             bool
	sampleNs, decodeNs int64
}

// runLayout is the engine body behind Run, for a lone patch and for
// layouts alike: set up, boot every patch, derive the surgery schedule,
// then advance chunk by chunk until the horizon or a severed patch ends the
// trajectory.
func runLayout(cfg Config, mode Mode, seed int64) (*Result, error) {
	r, err := setup(cfg, mode, seed)
	if err != nil {
		return nil, err
	}
	for i := range r.patches {
		if err := r.boot(i); err != nil {
			return nil, err
		}
		if r.res.Severed {
			return r.res, nil
		}
	}
	if err := r.schedule(); err != nil {
		return nil, err
	}
	for r.cycle < cfg.Horizon {
		if r.recoverAt(); r.res.Severed {
			return r.res, nil
		}
		r.attemptSurgery()
		chunk := r.nextChunk()
		if chunk < 2 {
			// Too short for a DEM: the horizon's last cycle elapses unsampled.
			r.settle(chunk, false)
			break
		}
		if err := r.sampleChunk(chunk); err != nil {
			return nil, err
		}
		cut := r.feed(chunk)
		if cut < 0 {
			r.settle(chunk, true)
			continue
		}
		// Cut mid-chunk: the elapsed part carries no failure verdict.
		r.settle(cut+1, false)
		for i := range r.patches {
			if r.mitigate(i); r.res.Severed {
				return r.res, nil
			}
		}
	}
	r.res.ElapsedCycles = r.cycle
	return r.res, nil
}

// setup resolves what a trajectory fixes before cycle 0: the arm's
// deformation system, mitigation ladder and structural tier, the static
// patch tiles, the event timeline classified onto tiles and channels, and
// the device. The patches then boot one by one.
func setup(cfg Config, mode Mode, seed int64) (*run, error) {
	n := 1
	if cfg.Layout != nil {
		n = cfg.Layout.Patches
	}
	// Every arm shares the Surf-Deformer floorplan geometry (spacing d+Δd):
	// patch origins, channel widths, and hence the sampled event timeline
	// are identical across arms — the paired-comparison contract. Only the
	// per-patch policy and growth budget differ by arm.
	lay := layout.New(layout.SurfDeformer, n, cfg.D, cfg.DeltaD)
	r := &run{
		cfg: cfg, seed: seed, lone: cfg.Layout == nil, reweightFactor: cfg.ReweightFactor,
		sys: newSystem(cfg, mode, lay), cache: cfg.Cache, hotCache: sim.NewDEMCache(hotCacheLimit),
		memo: newDEMMemo(), patcher: &sim.Patcher{}, nominal: noise.Uniform(cfg.PhysicalRate),
		tr: cfg.Trace, arm: mode.String(), tj: cfg.TraceTraj, lay: lay, patches: make([]*patchState, n),
	}
	var err error
	if r.mit, err = armMitigation(cfg, mode); err != nil {
		return nil, err
	}
	if r.sys != nil {
		r.sys.SetMitigation(r.mit)
		// The strongest enabled tier is the arm's structural one: recovery
		// and mitigation both route on it.
		r.tier, _ = r.mit.Effective(defect.SeverityRemove)
	}
	if r.cache == nil {
		r.cache = sim.SharedDEMCache()
	}
	if r.reweightFactor == 0 {
		r.reweightFactor = DefaultReweightFactor
	}

	// Static patch tiles (event classification is by the undeformed tile
	// even while a patch is deformed) and the layout bounding box the event
	// timeline and the device are sampled over (for N=1, the patch bounds).
	specs := make([]*deform.Spec, n)
	var umin, umax lattice.Coord
	for i := range specs {
		specs[i] = deform.NewSquareSpec(lay.PatchOrigin(i), cfg.D)
		pmin, pmax := specs[i].Bounds()
		if i == 0 {
			umin = pmin
		}
		umax = lattice.Coord{Row: max(umax.Row, pmax.Row), Col: max(umax.Col, pmax.Col)}
	}
	events := sampleEvents(cfg, umin, umax, rand.New(rand.NewSource(mc.DeriveSeed(seed, saltEvents))))
	r.bounds = eventBoundaries(cfg, events)
	perPatch, chans, removeEvents := splitEvents(lay, specs, events)
	if r.lone {
		// A lone patch keeps every site of its events (leakage regions can
		// reach past the tile) and has no channels.
		perPatch, chans = [][]*event{events}, nil
	}
	r.chans = chans
	// One device covers the whole layout bounding box (channels included);
	// each patch boots against its own tile's slice of it.
	r.device = sampleDevice(cfg, umin, umax, seed)
	r.deviceRates = deviceRateMap(r.device)
	r.res = &Result{
		Mode: r.arm, Horizon: cfg.Horizon, FirstFailCycle: -1, MinDistance: math.MaxInt,
		Events: len(events), RemoveEvents: removeEvents, Patches: make([]PatchResult, n),
		ChannelEvents: len(chans), DeviceDefects: deviceDefectCount(r.device),
	}
	for i, spec := range specs {
		r.patches[i] = &patchState{spec: spec, events: perPatch[i]}
	}
	return r, nil
}

// newSystem builds the arm's deformation system (nil for the arms whose
// code never changes).
func newSystem(cfg Config, mode Mode, lay *layout.Layout) *core.System {
	plan := &core.Plan{D: cfg.D, DeltaD: cfg.DeltaD, Layout: lay}
	switch mode {
	case ModeUntreated, ModeReweightOnly:
		return nil
	case ModeASC, ModeSuperOnly:
		// Both arms keep a zero growth budget: ASC-S only shrinks, the
		// bandage arm only merges in place (its policy is inert — Step is
		// never routed to it).
		return plan.NewSystemWith(deform.PolicyASC, deform.UniformBudget(0))
	}
	return plan.NewSystemWith(deform.PolicySurfDeformer, deform.UniformBudget(cfg.DeltaD))
}

// boot builds patch i's starting code, adapts it to its tile's slice of the
// device, and seeds its detector, shot stream and minimum distance. A
// device so broken the patch cannot boot severs it at cycle 0.
func (r *run) boot(i int) error {
	ps, pr := r.patches[i], &r.res.Patches[i]
	var err error
	if r.sys != nil {
		ps.pristine, err = r.sys.Unit(i).Code()
	} else {
		ps.pristine, err = ps.spec.Build()
	}
	if err != nil {
		return err
	}
	// Boot adaptation runs after `pristine` is fixed: the adapted code is
	// seed-specific and builds through the private cache.
	adapted, err := r.bootAdapt(i)
	if err != nil {
		r.terminate(i)
		return nil
	}
	// A layout patch's minimum starts at its adapted code; a lone patch's
	// also covers the pristine code it booted from.
	pr.MinDistance = math.MaxInt
	if adapted == nil || r.lone {
		r.adopt(i, ps.pristine)
	}
	if adapted != nil {
		r.adopt(i, adapted)
	}
	ps.window = detect.NewWindow(r.cfg.Window, r.cfg.Threshold)
	ps.window.SetHalflife(r.cfg.Halflife)
	ps.attributed = map[int32]*attribution{}
	if i == 0 {
		ps.shotRNG = rand.New(rand.NewSource(mc.DeriveSeed(r.seed, saltShots)))
	} else {
		ps.shotRNG = rand.New(rand.NewSource(mc.DeriveSeed(r.seed, saltShots, int64(i))))
	}
	for _, e := range ps.events {
		pr.Events++
		if e.remove {
			pr.RemoveEvents++
		}
	}
	return nil
}

// adopt installs patch i's code after a structural change (boot,
// deformation, bandage, recovery) and folds its distance into the patch's
// and the trajectory's minimum.
func (r *run) adopt(i int, c *code.Code) {
	ps, pr := r.patches[i], &r.res.Patches[i]
	ps.curCode = c
	ps.blocked = r.sys != nil && r.sys.Blocked(i)
	pr.MinDistance = min(pr.MinDistance, minDist(c))
	r.res.MinDistance = min(r.res.MinDistance, pr.MinDistance)
}

// schedule derives the lattice-surgery schedule and its router. Attempts
// sit at multiples of the lattice-surgery step (d cycles per operation);
// nextChunk clamps chunks to attempt boundaries while operations remain.
func (r *run) schedule() error {
	ops, err := r.cfg.Layout.scheduleOps()
	if err != nil || len(ops) == 0 {
		return err
	}
	step := int64(r.cfg.D)
	r.sched = &surgerySchedule{
		ops: ops, done: make([]bool, len(ops)), failedOnce: make([]bool, len(ops)),
		stepCycles: step, nextAttempt: step,
	}
	r.grid = route.NewGrid(r.lay.Rows, r.lay.Cols)
	r.res.OpsTotal = len(ops)
	return nil
}

// recoverAt processes the event boundaries the clock has reached. Each
// recovery confirmation runs every patch's recovery path (recoverPatch); a
// failed recovery severs the patch.
func (r *run) recoverAt() {
	for r.nextBound < len(r.bounds) && r.bounds[r.nextBound].cycle <= r.cycle {
		b := r.bounds[r.nextBound]
		r.nextBound++
		if b.kind != boundRecover {
			continue
		}
		for i, ps := range r.patches {
			recovered, err := r.recoverPatch(i)
			if err != nil {
				r.terminate(i)
				return
			}
			if recovered == 0 {
				continue
			}
			r.res.Recoveries++
			r.res.Patches[i].Recoveries++
			c, err := r.sys.Unit(i).Code()
			if err != nil {
				r.terminate(i)
				return
			}
			r.adopt(i, c)
			r.tr.Emit(obs.TraceEvent{Type: obs.TraceRecover, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
				Patch: i, Sites: recovered, Distance: minDist(ps.curCode)})
		}
	}
}

// nextChunk sizes the next chunk: ChunkRounds clamped to the next event
// boundary and the next surgery attempt, at least the 2 rounds a DEM
// needs, at most the remaining horizon (so below 2 only at its very end).
func (r *run) nextChunk() int64 {
	chunk := int64(r.cfg.ChunkRounds)
	if r.nextBound < len(r.bounds) {
		chunk = min(chunk, r.bounds[r.nextBound].cycle-r.cycle)
	}
	if r.sched.active() {
		chunk = min(chunk, r.sched.nextAttempt-r.cycle)
	}
	return min(max(chunk, 2), r.cfg.Horizon-r.cycle)
}

// sampleChunk runs every patch's chunk through its own cached DEM →
// sampler → decoder path: sample on the true rates (the events and the
// device), decode on the nominal model or the reweight tier's
// estimated-prior overlay, and stage each verdict and per-round detector
// stream for feed and settle. Under tracing it also sums the wall-clock
// cost of the shots (sample, then decode) for the epoch event; wall-clock
// never enters the Result, since it is not deterministic.
func (r *run) sampleChunk(chunk int64) error {
	hot, basis := r.hotCache, r.cfg.Basis
	r.sampleNs, r.decodeNs = 0, 0
	for i, ps := range r.patches {
		if ps.sitesOf != ps.curCode {
			ps.codeSites = siteSet(ps.curCode)
			ps.sitesOf = ps.curCode
		}
		ps.rates = mergedRates(activeRates(ps.events, r.cycle), r.deviceRates)
		codeCache := r.cache
		if ps.curCode != ps.pristine {
			codeCache = hot
		}
		nominalDEM, nomKey, err := codeCache.BuildDEMKeyed(ps.curCode, r.nominal, int(chunk), basis)
		if err != nil {
			return err
		}
		patchBase := nominalDEM
		if !patchDEMs {
			patchBase = nil
		}
		sampleDEM, sampleKey := nominalDEM, nomKey
		if len(ps.rates) > 0 {
			sampleDEM, sampleKey, err = hot.BuildDEMPatched(r.patcher, patchBase,
				ps.curCode, r.nominal.WithSiteRates(ps.rates), int(chunk), basis)
			if err != nil {
				return err
			}
		}
		ps.overlay = nil
		if r.mit.ReweightTier && r.cycle >= int64(r.cfg.Window) {
			ps.overlay = r.reweightOverlay(ps, r.memo.obsStats(nomKey, nominalDEM))
		}
		decodeDEM, decodeKey := nominalDEM, nomKey
		overlayBuilt := false
		if len(ps.overlay) > 0 {
			preMiss := hot.Stats().Misses
			decodeDEM, decodeKey, err = hot.BuildDEMPatched(r.patcher, patchBase,
				ps.curCode, r.nominal.OverlaySiteRates(ps.overlay), int(chunk), basis)
			if err != nil {
				return err
			}
			if hot.Stats().Misses > preMiss {
				r.res.OverlayDEMBuilds++
				overlayBuilt = true
			}
		}
		r.noteReweight(i, overlayBuilt)
		dec := r.memo.decoder(decodeKey, decodeDEM, nominalDEM)
		sampler := r.memo.sampler(sampleKey, sampleDEM)
		t0 := r.stamp()
		flagged, obsFlip := sampler.Shot(ps.shotRNG)
		t1 := r.stamp()
		ps.failed = dec.DecodeToObs(flagged) != obsFlip
		r.sampleNs += t1.Sub(t0).Nanoseconds()
		r.decodeNs += r.stamp().Sub(t1).Nanoseconds()
		ps.byRound = roundStream(sampleDEM, flagged, chunk, &ps.scratch)
		ps.dem = sampleDEM
		r.res.Epochs++
	}
	r.staged = true
	return nil
}

// stamp reads the clock only under tracing (the zero time otherwise, so
// untraced timings sum to 0).
func (r *run) stamp() time.Time {
	if r.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// noteReweight counts a decoder-prior update when patch i's overlay differs
// from its previous chunk's (a reset back to nominal included) and narrates
// it under tracing.
func (r *run) noteReweight(i int, built bool) {
	ps := r.patches[i]
	if maps.Equal(ps.overlay, ps.prevOverlay) {
		return
	}
	r.res.Reweights++
	ps.prevOverlay = ps.overlay
	if r.tr == nil {
		return
	}
	maxMult := 0.0
	for _, rate := range ps.overlay {
		maxMult = max(maxMult, rate/r.cfg.PhysicalRate)
	}
	r.tr.Emit(obs.TraceEvent{Type: obs.TraceReweight, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
		Patch: i, Overlay: len(ps.overlay), MaxMult: maxMult, DEMBuild: built})
}

// feed interleaves the patches' per-round detector feeds; the first fresh
// flag on any patch cuts the chunk for all of them. Returns the round of
// the cut, or -1 when the chunk ran uncut.
func (r *run) feed(chunk int64) int64 {
	cut := int64(-1)
	for rd := int64(0); rd < chunk && cut < 0; rd++ {
		at := r.cycle + rd
		for _, ps := range r.patches {
			ps.window.Feed(int(at), ps.byRound[rd])
		}
		if at < int64(r.cfg.Window) {
			continue
		}
		for _, ps := range r.patches {
			ps.fresh = nil
			if at < ps.quietUntil {
				continue
			}
			if ps.fresh = newFlags(ps.window, ps.attributed); len(ps.fresh) != 0 {
				cut = rd
			}
		}
	}
	for _, ps := range r.patches {
		ps.window.Trim()
	}
	return cut
}

// settle advances the clock over elapsed cycles: every patch accrues its
// blocked and distance cycles and the channels their blocked cycles. Only a
// scored (uncut) chunk carries failure verdicts. A sampled chunk's staging
// is consumed here — its prior bookkeeping accrues and it is narrated as
// one epoch event; the unsampled tail of the horizon has neither.
func (r *run) settle(elapsed int64, scored bool) {
	res := r.res
	failed := false
	for i, ps := range r.patches {
		if scored {
			res.ScoredCycles += elapsed
			if ps.failed {
				failed = true
				res.Failures++
				res.Patches[i].Failures++
				if res.FirstFailCycle < 0 {
					res.FirstFailCycle = r.cycle + elapsed
				}
			}
		}
		if r.staged {
			r.accrueReweight(ps, elapsed)
		}
		if ps.blocked {
			res.BlockedCycles += elapsed
			res.Patches[i].BlockedCycles += elapsed
		}
		res.DistanceCycles += int64(minDist(ps.curCode)) * elapsed
	}
	for _, ce := range r.chans {
		if ce.activeAt(r.cycle) {
			res.ChannelBlockedCycles += elapsed
			break
		}
	}
	r.cycle += elapsed
	if r.staged {
		r.staged = false
		r.tr.Emit(obs.TraceEvent{Type: obs.TraceEpoch, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
			Cycles: elapsed, Failed: failed, DecodeNs: r.decodeNs, SampleNs: r.sampleNs})
	}
}

// mitigate acts on patch i's fresh flags after a cut: attribute them to a
// region estimate (crediting detection latency), then route the estimate to
// the arm's structural tier — removal and enlargement (Step) or an in-place
// bandage (Super); arms without one only observe. A failed deformation
// severs the patch.
func (r *run) mitigate(i int) {
	ps := r.patches[i]
	if len(ps.fresh) == 0 {
		return
	}
	ps.quietUntil = r.cycle + int64(r.cfg.Window)
	estimate := r.attribute(i)
	if r.tr != nil {
		r.tr.Emit(obs.TraceEvent{Type: obs.TraceDetect, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
			Patch: i, Flags: len(ps.fresh), Region: len(estimate)})
		sev := [...]string{defect.SeverityReweight: "observe", defect.SeveritySuper: "super", defect.SeverityRemove: "remove"}
		r.tr.Emit(obs.TraceEvent{Type: obs.TraceMitigate, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
			Patch: i, Severity: sev[r.tier]})
	}
	switch r.tier {
	case defect.SeverityRemove:
		st, err := r.sys.Step(i, estimate)
		if err != nil {
			r.terminate(i)
			return
		}
		r.adopt(i, st.Code)
		if len(st.Defects) > 0 || st.Enlarged {
			r.res.Deformations++
			r.res.Patches[i].Deformations++
			r.tr.Emit(obs.TraceEvent{Type: obs.TraceDeform, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
				Patch: i, Defects: len(st.Defects), Enlarged: st.Enlarged, Distance: minDist(ps.curCode)})
		}
	case defect.SeveritySuper:
		st, err := r.sys.Super(i, dataSites(estimate))
		if err != nil {
			r.terminate(i)
			return
		}
		if n := len(st.Defects); n > 0 {
			r.res.Bandages += n
			r.tr.Emit(obs.TraceEvent{Type: obs.TraceDeform, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
				Patch: i, Defects: n, Distance: minDist(st.Code)})
		}
		r.adopt(i, st.Code)
	}
}

// attemptSurgery runs one routing attempt of the schedule once the clock
// reaches the next step boundary: refresh the grid's blockage (channel
// defects plus patches spilled past their reserve), route the eligible
// operations edge-disjointly, and gate merges between adjacent patches on
// the surgery.MergeBlocked strip check against the live (deformed) specs.
func (r *run) attemptSurgery() {
	s, res := r.sched, r.res
	if !s.active() || r.cycle < s.nextAttempt {
		return
	}
	s.nextAttempt = r.cycle + s.stepCycles
	r.grid.ResetBlocked()
	for _, ce := range r.chans {
		if ce.activeAt(r.cycle) {
			for _, cell := range ce.cells {
				r.grid.SetBlocked(cell, true)
			}
		}
	}
	for i := range r.patches {
		if r.sys != nil && r.sys.Blocked(i) {
			r.grid.SetBlocked(i, true)
		}
	}
	pending, pendIdx := s.eligible()
	executed := 0
	if len(pending) > 0 {
		s.routeBuf = r.grid.RoutePaths(pending, s.attempts, s.routeBuf[:0])
		routedSet := make(map[int]bool, len(s.routeBuf))
		for _, ri := range s.routeBuf {
			routedSet[ri] = true
			k := pendIdx[ri]
			if r.mergeBlocked(pending[ri]) {
				res.MergeBlockedOps++
				s.failedOnce[k] = true
				continue
			}
			s.done[k] = true
			s.completed++
			res.OpsCompleted++
			if s.failedOnce[k] {
				res.Replans++
			}
			executed++
		}
		for ri, k := range pendIdx {
			if !routedSet[ri] && !s.done[k] {
				s.failedOnce[k] = true
			}
		}
		if executed == 0 {
			res.StallCycles += s.stepCycles
		}
	}
	s.attempts++
	r.tr.Emit(obs.TraceEvent{Type: obs.TraceSurgery, Cycle: r.cycle, Arm: r.arm, Traj: r.tj,
		Pending: len(pending), Routed: executed})
	if !s.active() && !res.ProgramDone {
		res.ProgramDone = true
		res.ProgramDoneCycle = r.cycle
	}
}

// eligible lists the operations an attempt may route, in program order per
// patch: an operation waits until no earlier pending operation uses either
// of its patches. pendIdx maps each back to its schedule index.
func (s *surgerySchedule) eligible() (pending []route.CNOT, pendIdx []int) {
	busy := map[int]bool{}
	for k, op := range s.ops {
		if s.done[k] {
			continue
		}
		free := !busy[op.Control] && !busy[op.Target]
		busy[op.Control], busy[op.Target] = true, true
		if free {
			pending = append(pending, op)
			pendIdx = append(pendIdx, k)
		}
	}
	return pending, pendIdx
}

// mergeBlocked applies the lattice-surgery strip check to an operation
// between horizontally adjacent patches: the merge must survive the active
// channel defects in the strip without severing or dropping below the
// operands' current minimum distance. Non-adjacent operations route through
// multiple channels and are governed by the grid alone.
func (r *run) mergeBlocked(op route.CNOT) bool {
	ra, ca := r.lay.PatchCell(op.Control)
	rb, cb := r.lay.PatchCell(op.Target)
	if ra != rb || (ca-cb != 1 && cb-ca != 1) {
		return false
	}
	li, ri := op.Control, op.Target
	if ca > cb {
		li, ri = ri, li
	}
	left := r.patches[li].liveSpec(r.sys, li)
	right := r.patches[ri].liveSpec(r.sys, ri)
	_, lmax := left.Bounds()
	rmin, _ := right.Bounds()
	var strip []lattice.Coord
	for _, ce := range r.chans {
		if !ce.activeAt(r.cycle) {
			continue
		}
		for _, q := range ce.sites {
			if q.Col > lmax.Col && q.Col < rmin.Col &&
				q.Row >= left.Origin.Row && q.Row <= lmax.Row {
				strip = append(strip, q)
			}
		}
	}
	minDistance := min(minDist(r.patches[li].curCode), minDist(r.patches[ri].curCode))
	blocked, _ := surgery.MergeBlocked(left, right, strip, minDistance)
	return blocked
}

// terminate ends a trajectory whose patch i severed: the remaining horizon
// is unprotected, so the trajectory counts as failed from the severing
// cycle onward. The triggering error is consumed — a severed patch is a
// measured outcome of the arm (ASC-S severs more), not a simulation fault.
// Like MemorySweep's severed rows, this conservatively classifies *any*
// removal/enlargement/rebuild error as severing; deform exposes no
// sentinel distinguishing a disconnected patch from other failures.
func (r *run) terminate(i int) {
	res, pr := r.res, &r.res.Patches[i]
	pr.Severed = true
	pr.Failures++
	pr.MinDistance = 0
	res.Severed = true
	res.Failures++
	if res.FirstFailCycle < 0 {
		res.FirstFailCycle = r.cycle
	}
	res.ElapsedCycles = r.cycle
	res.MinDistance = 0
}
