// Package surfdeformer is a from-scratch Go implementation of Surf-Deformer
// (Yin et al., MICRO 2024): a code deformation framework that mitigates
// dynamic defects on surface codes through adaptive deformation.
//
// The public API covers the full workflow of the paper's fig. 5:
//
//   - Patch wraps one (possibly deformed) surface-code logical qubit and
//     exposes the four deformation instructions (DataQ_RM, SyndromeQ_RM,
//     PatchQ_RM, PatchQ_ADD), the defect-removal subroutine (Algorithm 1)
//     and adaptive enlargement (Algorithm 2).
//   - MemoryExperiment measures logical error rates of any patch under the
//     circuit-level noise model with a union-find decoder, including
//     untreated 50%-error defect regions.
//   - Planner chooses the code distance and extra inter-space Δd for a
//     program (the compile-time layout generator, Eq. 1), and Unit drives
//     runtime deformation round by round.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of every table and figure of the paper.
package surfdeformer

import (
	"fmt"

	"surfdeformer/internal/code"
	"surfdeformer/internal/core"
	"surfdeformer/internal/decoder"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/program"
	"surfdeformer/internal/sim"
)

// Coord is a position on the 2-D qubit lattice: data qubits live at
// odd×odd coordinates, syndrome qubits at even×even plaquette centres.
type Coord = lattice.Coord

// Side labels patch boundaries for enlargement.
type Side = lattice.Side

// Boundary sides.
const (
	Top    = lattice.Top
	Bottom = lattice.Bottom
	Left   = lattice.Left
	Right  = lattice.Right
)

// Policy selects the defect-mitigation strategy.
type Policy = deform.Policy

// Mitigation policies: the paper's Algorithm 1 (PolicySurfDeformer), the
// ASC-S baseline, and the no-balancing ablation.
const (
	PolicySurfDeformer = deform.PolicySurfDeformer
	PolicyASC          = deform.PolicyASC
	PolicyNoBalance    = deform.PolicyNoBalance
)

// Patch is one surface-code logical qubit under deformation.
type Patch struct {
	spec *deform.Spec
	code *code.Code
}

// NewPatch creates an undeformed distance-d square patch anchored at the
// origin.
func NewPatch(d int) (*Patch, error) {
	return NewRectPatch(d, d)
}

// NewRectPatch creates a dx×dz rectangular patch: Z distance dx, X
// distance dz.
func NewRectPatch(dx, dz int) (*Patch, error) {
	if dx < 2 || dz < 2 {
		return nil, fmt.Errorf("surfdeformer: patch dimensions %dx%d too small", dx, dz)
	}
	spec := deform.NewSpec(lattice.Coord{Row: 0, Col: 0}, dx, dz)
	c, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return &Patch{spec: spec, code: c}, nil
}

// RemoveDefects excludes the given defective physical qubits from the code
// using the policy's instruction selection (the paper's Algorithm 1) and
// rebuilds the deformed code.
func (p *Patch) RemoveDefects(defects []Coord, policy Policy) error {
	if err := deform.ApplyDefects(p.spec, defects, policy); err != nil {
		return err
	}
	c, err := p.spec.Build()
	if err != nil {
		return err
	}
	p.code = c
	return nil
}

// Enlarge grows the patch by the given number of layers on one side
// (PatchQ_ADD) and rebuilds.
func (p *Patch) Enlarge(side Side, layers int) error {
	if err := p.spec.PatchQADD(side, layers); err != nil {
		return err
	}
	c, err := p.spec.Build()
	if err != nil {
		return err
	}
	p.code = c
	return nil
}

// RestoreDistance adaptively enlarges the patch until its X and Z distances
// reach the targets, spending at most budget layers per side (the paper's
// Algorithm 2).
func (p *Patch) RestoreDistance(targetX, targetZ, budget int, policy Policy) error {
	res, err := deform.Enlarge(p.spec, targetX, targetZ, nil, policy, deform.UniformBudget(budget))
	if err != nil {
		return err
	}
	p.code = res.Code
	return nil
}

// DistanceX returns the dressed logical-X distance.
func (p *Patch) DistanceX() int { return p.code.DistanceX() }

// DistanceZ returns the dressed logical-Z distance.
func (p *Patch) DistanceZ() int { return p.code.DistanceZ() }

// Distance returns min(DistanceX, DistanceZ).
func (p *Patch) Distance() int { return p.code.Distance() }

// NumDataQubits returns the active data qubit count.
func (p *Patch) NumDataQubits() int { return p.code.NumData() }

// NumQubits returns the total active physical qubits (data + syndrome).
func (p *Patch) NumQubits() int { return p.code.NumQubits() }

// Params returns the subsystem-code parameters [[n, k, l]].
func (p *Patch) Params() (n, k, l int, err error) { return p.code.Params() }

// Validate checks every structural invariant of the deformed code.
func (p *Patch) Validate() error { return p.code.Validate() }

// Stabilizers returns the number of stabilizer generators (including
// super-stabilizers) and gauge operators currently measured.
func (p *Patch) Stabilizers() (stabs, gauges int) {
	return len(p.code.Stabs()), len(p.code.Gauges())
}

// MemoryOptions configures a logical memory experiment.
type MemoryOptions struct {
	// PhysicalErrorRate is the baseline circuit-level rate (default 1e-3).
	PhysicalErrorRate float64
	// Rounds of syndrome extraction (default 8).
	Rounds int
	// Shots of Monte Carlo (default 10000). When TargetRSE is 0 this is
	// the exact per-basis budget.
	Shots int
	// Seed for reproducibility.
	Seed int64
	// Workers sizes the Monte-Carlo engine's pool (0 = all CPUs). The
	// result is bit-identical for any value; it only changes wall-clock
	// time.
	Workers int
	// TargetRSE, when positive, stops each basis early once the failure
	// rate is known to this relative standard error (e.g. 0.1), up to
	// MaxShots.
	TargetRSE float64
	// MaxShots caps the adaptive budget when TargetRSE is set (default
	// Shots).
	MaxShots int
	// Defective marks hot qubits erroring at DefectRate; if DecoderAware
	// is false the decoder keeps nominal priors (an untreated dynamic
	// defect).
	Defective    []Coord
	DefectRate   float64
	DecoderAware bool
	// CorrelatedRate adds the fig. 14a correlated two-qubit channel.
	CorrelatedRate float64
}

// MemoryResult reports a memory experiment.
type MemoryResult struct {
	Shots            int // shots actually spent across both bases
	Failures         int
	LogicalErrorRate float64 // per shot
	PerRound         float64 // per QEC cycle
	// CILow and CIHigh bound LogicalErrorRate by combining the per-basis
	// 95% Wilson intervals; both bases must cover simultaneously, so the
	// joint coverage of the combined interval is ≈ 90%.
	CILow, CIHigh float64
	// EarlyStopped reports that at least one basis hit its TargetRSE
	// before exhausting the shot budget.
	EarlyStopped bool
}

// MemoryExperiment measures the logical error rate of the patch in both
// bases and returns the combined per-round rate.
func (p *Patch) MemoryExperiment(o MemoryOptions) (*MemoryResult, error) {
	if o.PhysicalErrorRate == 0 {
		o.PhysicalErrorRate = noise.DefaultPhysical
	}
	if o.Rounds == 0 {
		o.Rounds = 8
	}
	if o.Shots == 0 {
		o.Shots = 10000
	}
	if o.DefectRate == 0 {
		o.DefectRate = noise.DefaultDefectRate
	}
	nominal := noise.Uniform(o.PhysicalErrorRate).WithCorrelated(o.CorrelatedRate)
	model := nominal
	if len(o.Defective) > 0 {
		model = nominal.WithDefects(o.Defective, o.DefectRate)
	}
	shots := o.Shots
	if o.TargetRSE > 0 && o.MaxShots > 0 {
		shots = o.MaxShots
	}
	// Untreated defects decode with nominal priors; otherwise decode with
	// the sampling model itself (nil decode model = matched).
	var decodeModel *noise.Model
	if len(o.Defective) > 0 && !o.DecoderAware {
		decodeModel = nominal
	}
	zRes, xRes, perRound, _, err := sim.RunMemoryBoth(p.code, model, decodeModel, sim.RunOptions{
		Rounds:    o.Rounds,
		Factory:   decoder.UnionFindFactory(),
		Shots:     shots,
		Workers:   o.Workers,
		TargetRSE: o.TargetRSE,
		Seed:      o.Seed,
	})
	if err != nil {
		return nil, err
	}
	combinedShot := 1 - (1-zRes.LogicalErrorRate)*(1-xRes.LogicalErrorRate)
	return &MemoryResult{
		Shots:            zRes.Shots + xRes.Shots,
		Failures:         zRes.Failures + xRes.Failures,
		LogicalErrorRate: combinedShot,
		PerRound:         perRound,
		CILow:            1 - (1-zRes.CILow)*(1-xRes.CILow),
		CIHigh:           1 - (1-zRes.CIHigh)*(1-xRes.CIHigh),
		EarlyStopped:     zRes.EarlyStopped || xRes.EarlyStopped,
	}, nil
}

// Program re-exports the benchmark program model.
type Program = program.Program

// Benchmark program constructors (§VII-A).
var (
	Simon  = program.Simon
	RCA    = program.RCA
	QFT    = program.QFT
	Grover = program.Grover
)

// Plan is a compile-time layout plan: the chosen code distance, the Δd
// growth reserve (Eq. 1), and the retry-risk estimate.
type Plan struct {
	D              int
	DeltaD         int
	PhysicalQubits int
	RetryRisk      float64
	inner          *core.Plan
}

// PlanProgram runs the compile-time layout generator for a program at the
// given retry-risk target (e.g. 0.001 for 0.1%).
func PlanProgram(prog *Program, targetRetry float64) (*Plan, error) {
	fw := core.NewFramework()
	fw.TargetRetry = targetRetry
	inner, err := fw.Compile(prog)
	if err != nil {
		return nil, err
	}
	return &Plan{
		D:              inner.D,
		DeltaD:         inner.DeltaD,
		PhysicalQubits: inner.Layout.PhysicalQubits(),
		RetryRisk:      inner.Estimate.RetryRisk,
		inner:          inner,
	}, nil
}

// Unit is the runtime code deformation unit of one patch. Besides Step
// (defect report → deformed code) it supports Recover (defects subsided →
// re-incorporate qubits and shrink superfluous growth).
type Unit = deform.Unit

// NewUnit creates a runtime deformation unit for patch index i of the plan.
func (p *Plan) NewUnit(i int) *Unit { return p.inner.NewUnit(i) }

// System manages the deformation units of every patch in a plan and tracks
// which patches block their communication channels.
type System = core.System

// NewSystem instantiates the full runtime of the plan: one deformation unit
// per logical patch plus channel-blocking bookkeeping for the router.
func (p *Plan) NewSystem() *System { return p.inner.NewSystem() }

// NewStandaloneUnit creates a deformation unit for a d×d patch with a Δd
// growth budget, independent of any program plan.
func NewStandaloneUnit(d, deltaD int) *Unit {
	return core.UnitAt(lattice.Coord{Row: 0, Col: 0}, d, deltaD)
}

// Reincorporate returns recovered physical qubits to the patch (the defect
// subsided) and rebuilds the code.
func (p *Patch) Reincorporate(defects []Coord) error {
	p.spec.Reincorporate(defects)
	c, err := p.spec.Build()
	if err != nil {
		return err
	}
	p.code = c
	return nil
}
