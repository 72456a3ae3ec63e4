package main

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"surfdeformer/internal/decoder"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

// hostSink keeps the host probe's loop from being optimized away.
var hostSink uint64

// hostProbe times a fixed xorshift loop that never calls the program and
// returns the median of three timings in milliseconds. It shows how fast
// the host was during the run; no metric is rescaled by it.
func hostProbe() float64 {
	ms := make([]float64, 3)
	for i := range ms {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for k := 0; k < 40_000_000; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		hostSink += x
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// strikeCluster is the fixed removal the deform.Unit.Step probe applies: the
// centre data qubit of a d=5 patch and the four syndrome sites around it.
var strikeCluster = []lattice.Coord{{Row: 5, Col: 5}, {Row: 4, Col: 4}, {Row: 4, Col: 6}, {Row: 6, Col: 4}, {Row: 6, Col: 6}}

// probeLayers times single public calls of each layer on the workload's
// pristine codes. Every timed call is also a span under parent.
func probeLayers(w workload, rec *recorder, parent int, seed int64, sc scale) (map[string]float64, error) {
	codes, rounds, err := w.probeCodes()
	if err != nil {
		return nil, err
	}
	nominal := noise.Uniform(noise.DefaultPhysical)
	var buildMs, graphMs, sampleNs, decodeNs []float64
	for _, c := range codes {
		var dem *sim.DEM
		var reps []float64
		for r := 0; r < sc.probeReps; r++ {
			sp := rec.begin("sim.BuildDEM", parent)
			dem, err = sim.BuildDEM(c, nominal, rounds, lattice.ZCheck)
			reps = append(reps, ms(sp.end()))
			if err != nil {
				return nil, err
			}
		}
		buildMs = append(buildMs, median(reps))

		var g *decoder.Graph
		reps = reps[:0]
		for r := 0; r < sc.probeReps; r++ {
			sp := rec.begin("decoder.NewGraph", parent)
			g = decoder.NewGraph(dem)
			reps = append(reps, ms(sp.end()))
		}
		graphMs = append(graphMs, median(reps))

		// Sample once timed, then replay the same stream untimed to keep
		// the shots for the decoder: Shot's slice is sampler-owned scratch.
		n := sc.probeShots
		sampler := sim.NewSampler(dem)
		rng := rand.New(rand.NewSource(seed))
		sp := rec.begin("sim.Sampler.Shot", parent)
		for i := 0; i < n; i++ {
			sampler.Shot(rng)
		}
		sampleNs = append(sampleNs, float64(sp.end().Nanoseconds())/float64(n))
		shots := make([][]int32, n)
		rng = rand.New(rand.NewSource(seed))
		for i := range shots {
			f, _ := sampler.Shot(rng)
			shots[i] = slices.Clone(f)
		}
		uf := decoder.NewUnionFind(g)
		sp = rec.begin("decoder.UnionFind.DecodeToObs", parent)
		for _, f := range shots {
			uf.DecodeToObs(f)
		}
		decodeNs = append(decodeNs, float64(sp.end().Nanoseconds())/float64(n))
	}

	var stepMs, bandageMs []float64
	for r := 0; r < sc.probeReps; r++ {
		u := deform.NewUnit(lattice.Coord{}, 5, 5, deform.PolicySurfDeformer, deform.UniformBudget(2))
		sp := rec.begin("deform.Unit.Step", parent)
		_, err := u.Step(strikeCluster)
		stepMs = append(stepMs, ms(sp.end()))
		if err != nil {
			return nil, err
		}
		u = deform.NewUnit(lattice.Coord{}, 5, 5, deform.PolicySurfDeformer, deform.UniformBudget(2))
		sp = rec.begin("deform.Unit.Bandage", parent)
		_, err = u.Bandage(strikeCluster[:1])
		bandageMs = append(bandageMs, ms(sp.end()))
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"sim.build_dem_ms":           mean(buildMs),
		"decoder.graph_build_ms":     mean(graphMs),
		"sim.sample_ns_per_shot":     mean(sampleNs),
		"decoder.decode_ns_per_shot": mean(decodeNs),
		"deform.step_ms":             median(stepMs),
		"deform.bandage_ms":          median(bandageMs),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
