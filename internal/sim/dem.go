// Package sim builds detector error models (DEMs) for memory experiments on
// (possibly deformed) surface codes and samples them efficiently.
//
// The construction is Stim's error analysis (Gidney, arXiv 2103.02202): the
// syndrome-extraction circuit is materialized once, then a single backward
// sweep over it tracks, per qubit, the detectors (parity comparisons that
// are deterministic in the noiseless circuit) and logical observable that an
// X or a Z inserted at the current point would flip. Reading those
// sensitivities at every elementary fault location yields each fault's
// signature in time linear in the circuit; faults with identical signatures
// merge into one mechanism. Sampling then draws each mechanism as an
// independent Bernoulli event and XORs signatures — orders of magnitude
// faster than stepping the circuit per shot.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"surfdeformer/internal/circuit"
	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/obs"
)

// DEM construction metrics: every build (cached or not upstream) counts
// here with its wall-clock cost. Build time is observation-only and never
// flows into results.
var (
	obsDEMBuilds  = obs.Default().Counter("sim.dem.builds")
	obsDEMBuildNs = obs.Default().Histogram("sim.dem.build_ns")
)

// Mechanism is one independent error source: with probability P it flips
// the listed detectors and, if Obs, the logical observable.
type Mechanism struct {
	P    float64
	Dets []int32 // sorted detector IDs
	Obs  bool
}

// DEM is a detector error model for one memory experiment.
type DEM struct {
	NumDets int
	Mechs   []Mechanism

	// DetRound and DetObs give, per detector, the round of its later
	// measurement and the observable (schedule index) it tracks — used by
	// decoders for diagnostics and by tests.
	DetRound []int32
	DetObs   []int32

	// Observables maps DetObs indices back to hardware locations; the
	// defect detector uses it to turn flagged observables into regions.
	Observables []ObsInfo

	// Decomposed counts mechanisms whose signature touched more than two
	// detectors and had to be split for the matching decoder.
	rawMechs int

	// plan, when non-nil, records how each mechanism's probability was
	// folded from elementary fault contributions, enabling Patcher.Patch to
	// derive site-rate variants of this DEM without re-running the fault
	// enumeration (see patch.go). Recorded only for builds whose model can
	// serve as a patch base.
	plan *demPlan
}

// RawMechanisms returns the number of fault components enumerated before
// merging.
func (d *DEM) RawMechanisms() int { return d.rawMechs }

// DetectorFireRates returns each detector's marginal firing probability
// under the DEM: mechanisms fire independently, so detector d fires with
// probability ½(1 − ∏_{m∋d}(1 − 2·P_m)) — the XOR of independent Bernoulli
// draws. The defect detector's rate estimator uses these as the nominal
// baselines it measures elevation against (detect.EstimateRates).
func (d *DEM) DetectorFireRates() []float64 {
	rates := make([]float64, d.NumDets)
	for i := range rates {
		rates[i] = 1
	}
	for _, m := range d.Mechs {
		f := 1 - 2*m.P
		for _, det := range m.Dets {
			rates[det] *= f
		}
	}
	for i, prod := range rates {
		rates[i] = 0.5 * (1 - prod)
	}
	return rates
}

// op kinds of the flattened circuit.
type opKind uint8

const (
	opReset opKind = iota
	opCX
	opMeas
)

type flatOp struct {
	kind  opKind
	basis lattice.CheckType
	a, b  int32 // qubit indices; b used by CX only
	rec   int32 // record index for opMeas
	round int16 // round the op belongs to (for phased noise models)
}

// ObsInfo describes one tracked observable for consumers that correlate
// detection events back to hardware locations (the defect detector).
type ObsInfo struct {
	Type     lattice.CheckType
	Support  []lattice.Coord
	Ancillas []lattice.Coord
}

// BuildDEM constructs the detector error model of a memory experiment in
// the given basis (lattice.ZCheck = memory-Z protecting the logical Z,
// exercising Z-type detectors against X errors) over the given number of
// syndrome-extraction rounds.
func BuildDEM(c *code.Code, model *noise.Model, rounds int, basis lattice.CheckType) (*DEM, error) {
	return buildDEM(c, func(int) *noise.Model { return model }, rounds, basis, patchableBase(model))
}

// patchableBase reports whether a constant-model build from m can serve as
// a patch base, returning m itself when it can. A base must carry no
// per-site overrides (so every enumerated contribution evaluates to one of
// the positive scalar rates, and any site-rate variant can only re-weight —
// never create or erase — contributions) and strictly positive scalar rates
// (so the recorded contribution set is exactly the positive-probability
// set under every such variant).
func patchableBase(m *noise.Model) *noise.Model {
	if len(m.SiteRates) == 0 && len(m.Defective) == 0 && m.P1 > 0 && m.P2 > 0 && m.PM > 0 {
		return m
	}
	return nil
}

// flatCircuit is the materialized memory experiment: the op list in time
// order plus the detector and observable wiring of every measurement record.
type flatCircuit struct {
	ops        []flatOp
	coords     []lattice.Coord // dense index → qubit: data qubits first, then ancillas
	qIdx       map[lattice.Coord]int32
	nData      int   // data qubits hold dense indices [0, nData)
	roundStart []int // index of each round's first op

	// recDets lists, per measurement record, the detectors it feeds in
	// increasing ID order (each detector names a record at most once);
	// obsRec marks the records in the logical observable's readout parity.
	recDets [][]int32
	obsRec  []bool
}

// buildDEM is the shared implementation; modelAt selects the noise model of
// each round (constant for BuildDEM, phase-dependent for BuildPhasedDEM).
// It runs in three passes: flatten the circuit, sweep it backward once to
// read every fault location's signature (sensitivities), then fold the
// faults into merged mechanisms in forward circuit order. The forward fold
// order is what fixes each mechanism's floating-point probability, so it
// must not change (see DESIGN.md, "Backward DEM construction").
//
// When record is non-nil the build additionally records the per-mechanism
// contribution plan keyed to that base model (patch.go); phased builds pass
// nil — their rates are round-dependent and cannot be replayed from a
// single model.
func buildDEM(c *code.Code, modelAt func(int) *noise.Model, rounds int, basis lattice.CheckType, record *noise.Model) (*DEM, error) {
	if rounds < 2 {
		return nil, fmt.Errorf("sim: need at least 2 rounds, got %d", rounds)
	}
	start := time.Now()
	defer func() {
		obsDEMBuilds.Inc()
		obsDEMBuildNs.Observe(time.Since(start).Nanoseconds())
	}()
	dem := &DEM{}
	fc, err := flattenCircuit(c, rounds, basis, dem)
	if err != nil {
		return nil, err
	}
	sens := fc.sensitivities()
	mm := newMechMerger(record != nil, dem.NumDets)
	coords := fc.coords

	// Fold every elementary fault in forward order: ops first, then the
	// per-round idles.
	var comp [16][]int32
	var compObs [16]bool
	slot := 0
	for _, op := range fc.ops {
		switch op.kind {
		case opReset:
			// Pauli-X channel on reset: the state flips to the orthogonal
			// basis state (X after |0>, Z after |+>).
			p := modelAt(int(op.round)).RateM(coords[op.a])
			dets, o := sens.sig(slot)
			slot++
			mm.add(p, dets, o, planContrib{kind: contribMeasReset, a: op.a})
		case opMeas:
			// Classical measurement flip.
			p := modelAt(int(op.round)).RateM(coords[op.a])
			mm.add(p, fc.recDets[op.rec], fc.obsRec[op.rec], planContrib{kind: contribMeasReset, a: op.a})
		case opCX:
			model := modelAt(int(op.round))
			p2 := model.Rate2(coords[op.a], coords[op.b])
			// The four generators X_a, X_b, Z_a, Z_b compose the 15
			// non-identity two-qubit Paulis: comp[mask] XORs the generators
			// whose bits are set, built from comp[mask] minus its low bit.
			for mask := 1; mask < 16; mask++ {
				gi := bits.TrailingZeros(uint(mask))
				gen, genObs := sens.sig(slot + gi)
				rest := mask & (mask - 1)
				comp[mask] = xorSorted(comp[mask][:0], comp[rest], gen)
				compObs[mask] = compObs[rest] != genObs
			}
			slot += 4
			for mask := 1; mask < 16; mask++ {
				mm.add(p2/15, comp[mask], compObs[mask], planContrib{kind: contribCX, a: op.a, b: op.b})
			}
			if model.PCorrelated > 0 {
				// Correlated X⊗X (mask 0011) and Z⊗Z (mask 1100) with equal
				// shares.
				mm.add(model.PCorrelated/2, comp[3], compObs[3], planContrib{kind: contribCorr})
				mm.add(model.PCorrelated/2, comp[12], compObs[12], planContrib{kind: contribCorr})
			}
		}
	}

	// Idle single-qubit depolarizing on every data qubit once per round
	// (the identity gate while ancillas are measured); this is also where
	// 50%-rate defect regions act when their checks have been disabled.
	var dy []int32
	for r := 0; r < rounds; r++ {
		for qi := 0; qi < fc.nData; qi++ {
			p1 := modelAt(r).Rate1(coords[qi])
			if p1 <= 0 {
				continue
			}
			dx, ox := sens.sig(sens.idleSlot(r, qi))
			dz, oz := sens.sig(sens.idleSlot(r, qi) + 1)
			dy = xorSorted(dy[:0], dx, dz)
			contrib := planContrib{kind: contribIdle, a: int32(qi)}
			mm.add(p1/3, dx, ox, contrib)
			mm.add(p1/3, dz, oz, contrib)
			mm.add(p1/3, dy, ox != oz, contrib)
		}
	}

	order := mm.emit(dem)
	if record != nil {
		core := &planCore{coords: coords, qIdx: fc.qIdx}
		core.mechOff, core.contribs = mm.planCSR(order)
		core.buildSiteIndex()
		dem.plan = &demPlan{core: core, base: record, codeFP: c.Fingerprint()}
	}
	return dem, nil
}

// flattenCircuit materializes the memory experiment of c as a flat op list
// and lays out its detectors, filling dem's NumDets, DetRound, DetObs and
// Observables.
func flattenCircuit(c *code.Code, rounds int, basis lattice.CheckType, dem *DEM) (*flatCircuit, error) {
	sched, err := circuit.NewSchedule(c)
	if err != nil {
		return nil, err
	}

	// Dense qubit indexing: data qubits first, then ancillas.
	dataQubits := c.DataQubits()
	fc := &flatCircuit{qIdx: make(map[lattice.Coord]int32, 2*len(dataQubits)), nData: len(dataQubits)}
	for _, q := range dataQubits {
		fc.qIdx[q] = int32(len(fc.coords))
		fc.coords = append(fc.coords, q)
	}
	for _, op := range sched.Ops {
		if op.Direct {
			continue
		}
		if _, ok := fc.qIdx[op.Ancilla]; !ok {
			fc.qIdx[op.Ancilla] = int32(len(fc.coords))
			fc.coords = append(fc.coords, op.Ancilla)
		}
	}
	qIdx := fc.qIdx

	// Materialize the flat circuit.
	var ops []flatOp
	nRec := int32(0)
	nSlots := len(sched.Ops)
	recOf := make([]int32, rounds*nSlots) // round*nSlots + slot -> record
	// Data initialization in the memory basis (reset noise applies).
	for _, q := range dataQubits {
		ops = append(ops, flatOp{kind: opReset, basis: basis, a: qIdx[q], round: 0})
	}
	fc.roundStart = make([]int, rounds)
	var live []circuit.MeasuredOp
	for r := 0; r < rounds; r++ {
		fc.roundStart[r] = len(ops)
		live = live[:0]
		for _, m := range sched.Ops {
			if m.MeasuredThisRound(r) {
				live = append(live, m)
			}
		}
		for _, m := range live {
			if m.Direct {
				continue
			}
			ops = append(ops, flatOp{kind: opReset, basis: m.Basis, a: qIdx[m.Ancilla], round: int16(r)})
		}
		maxSteps := 0
		for _, m := range live {
			if !m.Direct && len(m.Data) > maxSteps {
				maxSteps = len(m.Data)
			}
		}
		for t := 0; t < maxSteps; t++ {
			for _, m := range live {
				if m.Direct || t >= len(m.Data) {
					continue
				}
				anc, dat := qIdx[m.Ancilla], qIdx[m.Data[t]]
				if m.Basis == lattice.XCheck {
					ops = append(ops, flatOp{kind: opCX, a: anc, b: dat, round: int16(r)}) // anc controls
				} else {
					ops = append(ops, flatOp{kind: opCX, a: dat, b: anc, round: int16(r)}) // data controls
				}
			}
		}
		for _, m := range live {
			rec := nRec
			nRec++
			recOf[r*nSlots+m.Slot] = rec
			target := m.Ancilla
			if m.Direct {
				target = m.Data[0]
			}
			ops = append(ops, flatOp{kind: opMeas, basis: m.Basis, a: qIdx[target], rec: rec, round: int16(r)})
		}
	}
	// Transversal readout of all data qubits in the memory basis.
	readoutRec := make(map[lattice.Coord]int32, len(dataQubits))
	for _, q := range dataQubits {
		rec := nRec
		nRec++
		readoutRec[q] = rec
		ops = append(ops, flatOp{kind: opMeas, basis: basis, a: qIdx[q], rec: rec, round: int16(rounds - 1)})
	}
	fc.ops = ops

	// Detector layout. Each record participates in at most two detectors.
	recDets := make([][]int32, nRec)
	addDet := func(round int, obsIdx int, recs ...int32) {
		id := int32(dem.NumDets)
		dem.NumDets++
		dem.DetRound = append(dem.DetRound, int32(round))
		dem.DetObs = append(dem.DetObs, int32(obsIdx))
		for _, r := range recs {
			recDets[r] = append(recDets[r], id)
		}
	}
	for _, obs := range sched.Observables {
		info := ObsInfo{Type: obs.Type, Support: obs.Support}
		for _, slot := range obs.Slots {
			info.Ancillas = append(info.Ancillas, sched.Ops[slot].Ancilla)
		}
		dem.Observables = append(dem.Observables, info)
	}
	for oi, obs := range sched.Observables {
		if obs.Type != basis {
			continue // opposite-type checks catch the other error species
		}
		var avail []int
		for r := 0; r < rounds; r++ {
			if obs.AvailableThisRound(r) {
				avail = append(avail, r)
			}
		}
		if len(avail) == 0 {
			continue
		}
		valueRecs := func(r int) []int32 {
			var out []int32
			for _, slot := range obs.Slots {
				out = append(out, recOf[r*nSlots+slot])
			}
			return out
		}
		// Initial detector: first value vs the deterministic init.
		addDet(avail[0], oi, valueRecs(avail[0])...)
		// Consecutive comparisons.
		for i := 1; i < len(avail); i++ {
			recs := append(valueRecs(avail[i-1]), valueRecs(avail[i])...)
			addDet(avail[i], oi, recs...)
		}
		// Final detector: reconstruction from data readout vs last value.
		last := valueRecs(avail[len(avail)-1])
		for _, q := range obs.Support {
			last = append(last, readoutRec[q])
		}
		addDet(rounds, oi, last...)
	}
	fc.recDets = recDets

	// Logical observable: readout parity over the logical support.
	logical := c.LogicalZ()
	if basis == lattice.XCheck {
		logical = c.LogicalX()
	}
	fc.obsRec = make([]bool, nRec)
	for _, q := range logical.Support() {
		rec, ok := readoutRec[q]
		if !ok {
			return nil, fmt.Errorf("sim: logical support qubit %v missing from readout", q)
		}
		fc.obsRec[rec] = true
	}
	return fc, nil
}

// sensArena holds the signature recorded at every fault location, back to
// back in one flat detector arena: slot i flips dets[lo[i]:hi[i]] and, if
// obs[i], the observable. Slots are numbered in forward circuit order — one
// per reset (the flipped basis state), four per CX (X_a, X_b, Z_a, Z_b),
// then two per (round, data qubit) idle (X, Z) — while the arena itself
// fills in sweep (reverse) order.
type sensArena struct {
	dets      []int32
	lo, hi    []int32
	obs       []bool
	idleBase  int // slot of round 0's first idle
	idlePerRd int // idle slots per round
}

func (s *sensArena) sig(slot int) ([]int32, bool) {
	return s.dets[s.lo[slot]:s.hi[slot]], s.obs[slot]
}

func (s *sensArena) idleSlot(round, qi int) int {
	return s.idleBase + round*s.idlePerRd + 2*qi
}

func (s *sensArena) put(slot int, dets []int32, obs bool) {
	s.lo[slot] = int32(len(s.dets))
	s.dets = append(s.dets, dets...)
	s.hi[slot] = int32(len(s.dets))
	s.obs[slot] = obs
}

// sensitivities runs the backward sweep. Walking the ops in reverse, sx[q]
// (sz[q]) holds the detectors an X (Z) on q inserted after the current op
// would flip, and ox/oz the observable flip. Each op updates them by its
// time-reversed propagation rule:
//
//	reset q            sx[q], sz[q] = ∅ (a Pauli before a reset is erased)
//	Z-basis measure q  sx[q] ^= record's detectors (X flips the outcome)
//	X-basis measure q  sz[q] ^= record's detectors (Z flips the outcome)
//	CX c→t             sx[c] ^= sx[t];  sz[t] ^= sz[c]
//
// Signatures are recorded at each fault location before its op's rule is
// applied (faults act after their op), and at each round start after it
// (idles act before the round's first op).
func (fc *flatCircuit) sensitivities() *sensArena {
	nOpSlots := 0
	for _, op := range fc.ops {
		switch op.kind {
		case opReset:
			nOpSlots++
		case opCX:
			nOpSlots += 4
		}
	}
	rounds := len(fc.roundStart)
	s := &sensArena{idleBase: nOpSlots, idlePerRd: 2 * fc.nData}
	n := nOpSlots + rounds*s.idlePerRd
	s.lo, s.hi, s.obs = make([]int32, n), make([]int32, n), make([]bool, n)
	s.dets = make([]int32, 0, 4*n)

	nq := len(fc.coords)
	sx, sz := make([][]int32, nq), make([][]int32, nq)
	ox, oz := make([]bool, nq), make([]bool, nq)
	var tmp []int32
	slot := nOpSlots
	r := rounds - 1
	for i := len(fc.ops) - 1; i >= 0; i-- {
		op := fc.ops[i]
		a, b := op.a, op.b
		switch op.kind {
		case opReset:
			slot--
			if op.basis == lattice.XCheck {
				s.put(slot, sz[a], oz[a])
			} else {
				s.put(slot, sx[a], ox[a])
			}
			sx[a], sz[a] = sx[a][:0], sz[a][:0]
			ox[a], oz[a] = false, false
		case opCX:
			slot -= 4
			s.put(slot, sx[a], ox[a])
			s.put(slot+1, sx[b], ox[b])
			s.put(slot+2, sz[a], oz[a])
			s.put(slot+3, sz[b], oz[b])
			tmp, sx[a] = sx[a], xorSorted(tmp[:0], sx[a], sx[b])
			ox[a] = ox[a] != ox[b]
			tmp, sz[b] = sz[b], xorSorted(tmp[:0], sz[b], sz[a])
			oz[b] = oz[b] != oz[a]
		case opMeas:
			o := fc.obsRec[op.rec]
			if op.basis == lattice.ZCheck {
				tmp, sx[a] = sx[a], xorSorted(tmp[:0], sx[a], fc.recDets[op.rec])
				ox[a] = ox[a] != o
			} else {
				tmp, sz[a] = sz[a], xorSorted(tmp[:0], sz[a], fc.recDets[op.rec])
				oz[a] = oz[a] != o
			}
		}
		for ; r >= 0 && fc.roundStart[r] == i; r-- {
			for qi := 0; qi < fc.nData; qi++ {
				s.put(s.idleSlot(r, qi), sx[qi], ox[qi])
				s.put(s.idleSlot(r, qi)+1, sz[qi], oz[qi])
			}
		}
	}
	return s
}

// xorSorted appends the symmetric difference of two sorted detector lists
// to dst.
func xorSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// mergedMech accumulates one signature's merged probability during the
// fold: its detectors live at dets[lo:hi] of the merger's arena, next
// chains entries whose signatures share a hash, and lastRun is the index of
// its latest logged contribution run (-1 before the first).
type mergedMech struct {
	p       float64
	lo, hi  int32
	next    int32
	lastRun int32
	obs     bool
}

// mechMerger merges elementary faults with identical signatures, keyed by a
// hash of (dets, obs) with an exact equality check on collision. For patch
// bases it also logs every folded contribution with its entry, in fold
// order, for the contribution plan. Consecutive repeats of one contribution
// to one entry share a run (planContrib.n): a CX's 15 Paulis often share a
// signature, and runs cut the plan, which every cached base DEM retains, to
// about a quarter.
type mechMerger struct {
	index   map[uint64]int32 // signature hash → first entry
	entries []mergedMech
	dets    []int32
	raw     int

	record   bool
	runs     []planContrib
	runEntry []int32 // entry of each runs element
}

// newMechMerger sizes the merger for numDets detectors: surface-code DEMs
// merge into about 4–5 mechanisms per detector.
func newMechMerger(record bool, numDets int) *mechMerger {
	return &mechMerger{index: make(map[uint64]int32, 5*numDets), record: record}
}

// sigHash is FNV-1a over the detector IDs, seeded by the observable flag.
func sigHash(dets []int32, obs bool) uint64 {
	h := uint64(14695981039346656037)
	if obs {
		h = 0x9e3779b97f4a7c15
	}
	for _, d := range dets {
		h ^= uint64(uint32(d))
		h *= 1099511628211
	}
	return h
}

// add folds one elementary fault of probability p and sorted signature
// (dets, obs) into its mechanism. The fold arithmetic and call order are
// those of the forward reference builder, so merged probabilities are
// bit-identical to it.
func (mm *mechMerger) add(p float64, dets []int32, obs bool, contrib planContrib) {
	if p <= 0 || (len(dets) == 0 && !obs) {
		return
	}
	mm.raw++
	h := sigHash(dets, obs)
	e, ok := mm.index[h]
	if !ok {
		e = mm.newEntry(dets, obs)
		mm.index[h] = e
	}
	for m := &mm.entries[e]; m.obs != obs || !slices.Equal(mm.dets[m.lo:m.hi], dets); m = &mm.entries[e] {
		// A hash collision: walk the chain, appending the signature at
		// its end when no entry matches.
		next := m.next
		if next < 0 {
			next = mm.newEntry(dets, obs) // may move mm.entries
			mm.entries[e].next = next
		}
		e = next
	}
	m := &mm.entries[e]
	m.p = m.p + p - 2*m.p*p
	if !mm.record {
		return
	}
	if r := m.lastRun; r >= 0 && mm.runs[r].sameSource(contrib) && mm.runs[r].n < math.MaxUint16 {
		mm.runs[r].n++
		return
	}
	contrib.n = 1
	m.lastRun = int32(len(mm.runs))
	mm.runs = append(mm.runs, contrib)
	mm.runEntry = append(mm.runEntry, e)
}

func (mm *mechMerger) newEntry(dets []int32, obs bool) int32 {
	lo := int32(len(mm.dets))
	mm.dets = append(mm.dets, dets...)
	mm.entries = append(mm.entries, mergedMech{lo: lo, hi: int32(len(mm.dets)), next: -1, lastRun: -1, obs: obs})
	return int32(len(mm.entries) - 1)
}

// emit writes the merged mechanisms into dem in canonical order and returns
// that order as entry indices.
//
// The canonical order is byte order on the keys "<det>,<det>,...,\x00<obs>"
// (the forward reference builder's merge-map keys); the samplers' draw
// streams depend on it, so every stored result does. Byte order on those
// keys compares the first differing detector by its decimal string ("10"
// sorts before "2"; a decimal prefix sorts first), then puts a shorter list
// first (the NUL sorts below every digit), then obs false before true.
func (mm *mechMerger) emit(dem *DEM) []int32 {
	rank := decimalRanks(dem.NumDets)
	order := make([]int32, len(mm.entries))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		mx, my := &mm.entries[x], &mm.entries[y]
		dx, dy := mm.dets[mx.lo:mx.hi], mm.dets[my.lo:my.hi]
		for i := 0; i < len(dx) && i < len(dy); i++ {
			if dx[i] != dy[i] {
				return cmp.Compare(rank[dx[i]], rank[dy[i]])
			}
		}
		if len(dx) != len(dy) {
			return cmp.Compare(len(dx), len(dy))
		}
		if mx.obs == my.obs {
			return 0
		}
		if my.obs {
			return -1
		}
		return 1
	})
	dem.rawMechs = mm.raw
	dem.Mechs = make([]Mechanism, len(order))
	// The DEM keeps the detector lists in one exactly sized arena, in
	// emission order.
	arena := make([]int32, 0, len(mm.dets))
	for k, e := range order {
		m := &mm.entries[e]
		var dets []int32
		if m.hi > m.lo {
			lo := len(arena)
			arena = append(arena, mm.dets[m.lo:m.hi]...)
			dets = arena[lo:len(arena):len(arena)]
		}
		dem.Mechs[k] = Mechanism{P: m.p, Dets: dets, Obs: m.obs}
	}
	return order
}

// decimalRanks returns, for each detector ID in [0, n), its position when
// the IDs are sorted by decimal string.
func decimalRanks(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, cmpDecimal)
	rank := make([]int32, n)
	for pos, id := range ids {
		rank[id] = int32(pos)
	}
	return rank
}

// cmpDecimal compares the decimal strings of two non-negative integers in
// byte order, without formatting them: right-pad the shorter with zeros and
// compare numerically; on a tie one string is a prefix of the other, and
// the shorter sorts first.
func cmpDecimal(a, b int32) int {
	na, nb := decimalLen(a), decimalLen(b)
	x, y := int64(a), int64(b)
	for i := na; i < nb; i++ {
		x *= 10
	}
	for i := nb; i < na; i++ {
		y *= 10
	}
	if c := cmp.Compare(x, y); c != 0 {
		return c
	}
	return cmp.Compare(na, nb)
}

func decimalLen(v int32) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// planCSR lays the logged contribution runs out per emitted mechanism,
// each mechanism's in fold order.
func (mm *mechMerger) planCSR(order []int32) (mechOff []int32, contribs []planContrib) {
	pos := make([]int32, len(order))
	for k, e := range order {
		pos[e] = int32(k)
	}
	mechOff = make([]int32, len(order)+1)
	for _, e := range mm.runEntry {
		mechOff[pos[e]+1]++
	}
	for k := range order {
		mechOff[k+1] += mechOff[k]
	}
	cur := slices.Clone(mechOff[:len(order)])
	contribs = make([]planContrib, len(mm.runs))
	for i, c := range mm.runs {
		k := pos[mm.runEntry[i]]
		contribs[cur[k]] = c
		cur[k]++
	}
	return mechOff, contribs
}
