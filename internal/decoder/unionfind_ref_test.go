package decoder

// This file pins the flat epoch-stamped union-find against the map-based
// implementation it replaced. refUnionFind is a faithful copy of the
// pre-refactor decoder (maps for active roots, frontier multiplicities,
// peeling incidence/visitation, closure sort for frontier ordering); the
// differential tests require bit-identical corrections and failure counts
// on a seeded corpus spanning clean and defect-laden noise models. Any
// divergence means the refactor changed decoding behavior, not just speed.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/sim"
)

type refUnionFind struct {
	g *Graph

	parent   []int32
	parity   []int8
	bound    []bool
	growth   []float64
	grown    []bool
	absorbed []bool
	flag     []bool

	touched []int32
	edges   []int32
}

func newRefUnionFind(g *Graph) *refUnionFind {
	n := g.NumDets
	u := &refUnionFind{
		g:        g,
		parent:   make([]int32, n),
		parity:   make([]int8, n),
		bound:    make([]bool, n),
		growth:   make([]float64, len(g.Edges)),
		grown:    make([]bool, len(g.Edges)),
		absorbed: make([]bool, n),
		flag:     make([]bool, n),
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *refUnionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *refUnionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	u.parent[rb] = ra
	u.parity[ra] = (u.parity[ra] + u.parity[rb]) % 2
	u.bound[ra] = u.bound[ra] || u.bound[rb]
}

func (u *refUnionFind) absorb(n int32) {
	if !u.absorbed[n] {
		u.absorbed[n] = true
		u.touched = append(u.touched, n)
	}
}

func (u *refUnionFind) DecodeToObs(flagged []int32) bool {
	edgeSet := u.DecodeToEdges(flagged)
	obs := false
	for _, ei := range edgeSet {
		if u.g.Edges[ei].Obs {
			obs = !obs
		}
	}
	return obs
}

func (u *refUnionFind) DecodeToEdges(flagged []int32) []int32 {
	if len(flagged) == 0 {
		return nil
	}
	defer u.reset()
	for _, d := range flagged {
		u.absorb(d)
		u.parity[d] = 1
	}

	for iter := 0; ; iter++ {
		roots := u.activeRoots()
		if len(roots) == 0 || iter > 4*len(u.g.Edges) {
			break
		}
		isActive := map[int32]bool{}
		for _, r := range roots {
			isActive[r] = true
		}
		type frontierEdge struct {
			ei    int32
			sides float64
		}
		seen := map[int32]float64{}
		for _, n := range u.touched {
			if !isActive[u.find(n)] {
				continue
			}
			for _, ei := range u.g.Adj(n) {
				if u.grown[ei] {
					continue
				}
				seen[ei]++
			}
		}
		if len(seen) == 0 {
			break
		}
		var frontier []frontierEdge
		minStep := -1.0
		for ei, sides := range seen {
			if sides > 2 {
				sides = 2
			}
			rem := (u.g.Edges[ei].Weight - u.growth[ei]) / sides
			if minStep < 0 || rem < minStep {
				minStep = rem
			}
			frontier = append(frontier, frontierEdge{ei, sides})
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i].ei < frontier[j].ei })
		for _, fe := range frontier {
			if u.growth[fe.ei] == 0 {
				u.edges = append(u.edges, fe.ei)
			}
			u.growth[fe.ei] += minStep * fe.sides
			if u.growth[fe.ei] >= u.g.Edges[fe.ei].Weight-1e-12 && !u.grown[fe.ei] {
				u.grown[fe.ei] = true
				e := u.g.Edges[fe.ei]
				if e.V == Boundary {
					u.absorb(e.U)
					u.bound[u.find(e.U)] = true
				} else {
					u.absorb(e.U)
					u.absorb(e.V)
					u.union(e.U, e.V)
				}
			}
		}
	}
	return u.peel(flagged)
}

func (u *refUnionFind) activeRoots() []int32 {
	seen := map[int32]bool{}
	var roots []int32
	for _, n := range u.touched {
		r := u.find(n)
		if seen[r] {
			continue
		}
		seen[r] = true
		if u.parity[r] == 1 && !u.bound[r] {
			roots = append(roots, r)
		}
	}
	return roots
}

func (u *refUnionFind) peel(flagged []int32) []int32 {
	incident := map[int32][]int32{}
	for _, ei := range u.edges {
		if !u.grown[ei] {
			continue
		}
		e := u.g.Edges[ei]
		incident[e.U] = append(incident[e.U], ei)
		if e.V != Boundary {
			incident[e.V] = append(incident[e.V], ei)
		}
	}
	visited := map[int32]bool{}
	parentEdge := map[int32]int32{}
	var order []int32
	bfs := func(seeds []int32) {
		queue := seeds
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			order = append(order, n)
			for _, ei := range incident[n] {
				e := u.g.Edges[ei]
				other := e.U
				if other == n {
					other = e.V
				}
				if other == Boundary || visited[other] {
					continue
				}
				visited[other] = true
				parentEdge[other] = ei
				queue = append(queue, other)
			}
		}
	}
	var seeds []int32
	for _, ei := range u.edges {
		e := u.g.Edges[ei]
		if u.grown[ei] && e.V == Boundary && !visited[e.U] {
			visited[e.U] = true
			parentEdge[e.U] = ei
			seeds = append(seeds, e.U)
		}
	}
	bfs(seeds)
	for _, n := range u.touched {
		if !visited[n] {
			visited[n] = true
			parentEdge[n] = -1
			bfs([]int32{n})
		}
	}
	for _, d := range flagged {
		u.flag[d] = true
	}
	var correction []int32
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if !u.flag[n] {
			continue
		}
		ei := parentEdge[n]
		if ei < 0 {
			continue
		}
		correction = append(correction, ei)
		u.flag[n] = false
		e := u.g.Edges[ei]
		other := e.U
		if other == n {
			other = e.V
		}
		if other != Boundary {
			u.flag[other] = !u.flag[other]
		}
	}
	for _, d := range flagged {
		u.flag[d] = false
	}
	for _, n := range u.touched {
		u.flag[n] = false
	}
	return correction
}

func (u *refUnionFind) reset() {
	for _, n := range u.touched {
		u.parent[n] = n
		u.parity[n] = 0
		u.bound[n] = false
		u.absorbed[n] = false
	}
	for _, ei := range u.edges {
		u.growth[ei] = 0
		u.grown[ei] = false
	}
	u.touched = u.touched[:0]
	u.edges = u.edges[:0]
}

// differentialCorpus builds a seeded shot corpus over one DEM.
func differentialCorpus(t *testing.T, dem *sim.DEM, shots int, seed int64) [][]int32 {
	t.Helper()
	sampler := sim.NewSampler(dem)
	rng := rand.New(rand.NewSource(seed))
	corpus := make([][]int32, shots)
	for i := range corpus {
		flagged, _ := sampler.Shot(rng)
		corpus[i] = slices.Clone(flagged)
	}
	return corpus
}

// TestUnionFindMatchesReference runs the flat decoder and the pre-refactor
// map-based reference over seeded corpora and requires bit-identical
// corrections (same edges in the same order) and identical observable
// predictions, shot for shot.
func TestUnionFindMatchesReference(t *testing.T) {
	configs := []struct {
		name      string
		d, rounds int
		p         float64
		shots     int
		defects   []lattice.Coord
	}{
		{name: "d3-low-p", d: 3, rounds: 4, p: 2e-3, shots: 400},
		{name: "d5-mid-p", d: 5, rounds: 5, p: 8e-3, shots: 400},
		{name: "d5-high-p", d: 5, rounds: 4, p: 2e-2, shots: 300},
		{name: "d5-defect", d: 5, rounds: 4, p: 1e-3, shots: 300,
			defects: []lattice.Coord{{Row: 5, Col: 5}}},
		// The memory-sweep shape: large clusters grow over many iterations,
		// so first-touch order and per-iteration completion order both
		// matter for the peel.
		{name: "d9-sweep", d: 9, rounds: 8, p: 1e-3, shots: 200,
			defects: []lattice.Coord{{Row: 5, Col: 7}, {Row: 11, Col: 13}}},
	}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, cfg.d))
			model := noise.Uniform(cfg.p)
			if cfg.defects != nil {
				// Defect-laden weights exercise irregular cluster growth
				// steps (the fuzz-corpus regime of heavy local noise).
				model = model.WithDefects(cfg.defects, noise.DefaultDefectRate)
			}
			dem, err := sim.BuildDEM(c, model, cfg.rounds, lattice.ZCheck)
			if err != nil {
				t.Fatal(err)
			}
			g := NewGraph(dem)
			flat := NewUnionFind(g)
			ref := newRefUnionFind(g)
			corpus := differentialCorpus(t, dem, cfg.shots, int64(1000+ci))
			flatFails, refFails := 0, 0
			for i, flagged := range corpus {
				got := slices.Clone(flat.DecodeToEdges(flagged))
				want := ref.DecodeToEdges(flagged)
				if !slices.Equal(got, want) {
					t.Fatalf("shot %d: corrections diverge\nflat: %v\nref:  %v\nflagged: %v",
						i, got, want, flagged)
				}
				gObs, wObs := obsOf(g, got), obsOf(g, want)
				if gObs != wObs {
					t.Fatalf("shot %d: observable prediction diverges", i)
				}
				if gObs {
					flatFails++
				}
				if wObs {
					refFails++
				}
			}
			if flatFails != refFails {
				t.Fatalf("failure counts diverge: flat %d vs ref %d", flatFails, refFails)
			}
			if flat.Truncations != 0 {
				t.Fatalf("flat decoder reported %d truncations on a well-formed graph", flat.Truncations)
			}
		})
	}
}

func obsOf(g *Graph, correction []int32) bool {
	obs := false
	for _, ei := range correction {
		if g.Edges[ei].Obs {
			obs = !obs
		}
	}
	return obs
}

// fuzzGraphs are the fixed decoding graphs FuzzUnionFindReference draws
// from. They stay at d ≤ 5: the map-based reference is slow at d=9.
func fuzzGraphs(f *testing.F) []*Graph {
	f.Helper()
	shapes := []struct {
		d       int
		p       float64
		defects []lattice.Coord
	}{
		{d: 3, p: 1e-3},
		{d: 5, p: 1e-3},
		{d: 5, p: 1e-3, defects: []lattice.Coord{{Row: 5, Col: 5}}},
		{d: 5, p: 2e-2},
	}
	graphs := make([]*Graph, len(shapes))
	for i, s := range shapes {
		c := code.FromPatch(lattice.NewPatch(lattice.Coord{Row: 0, Col: 0}, s.d))
		model := noise.Uniform(s.p)
		if s.defects != nil {
			model = model.WithDefects(s.defects, noise.DefaultDefectRate)
		}
		dem, err := sim.BuildDEM(c, model, s.d, lattice.ZCheck)
		if err != nil {
			f.Fatal(err)
		}
		graphs[i] = NewGraph(dem)
	}
	return graphs
}

// fuzzFlags maps fuzz bytes to a sorted detector subset of at most
// maxFuzzFlags detectors: each byte pair is a big-endian detector index
// modulo numDets, and repeats are dropped.
func fuzzFlags(raw []byte, numDets int) []int32 {
	const maxFuzzFlags = 24
	var flagged []int32
	for i := 0; i+1 < len(raw) && len(flagged) < maxFuzzFlags; i += 2 {
		det := int32((int(raw[i])<<8 | int(raw[i+1])) % numDets)
		if !slices.Contains(flagged, det) {
			flagged = append(flagged, det)
		}
	}
	slices.Sort(flagged)
	return flagged
}

// FuzzUnionFindReference decodes arbitrary detector subsets, not just
// sampled ones, on fixed graphs (pristine d=3 and d=5, d=5 with a defect,
// d=5 at p=2e-2). The flat decoder must return the reference's correction
// edge for edge, the correction's boundary must equal the flagged set
// modulo the boundary node, and no shot may truncate.
func FuzzUnionFindReference(f *testing.F) {
	graphs := fuzzGraphs(f)
	flats := make([]*UnionFind, len(graphs))
	refs := make([]*refUnionFind, len(graphs))
	for i, g := range graphs {
		flats[i] = NewUnionFind(g)
		refs[i] = newRefUnionFind(g)
	}
	f.Add(uint8(0), []byte{0, 0})
	f.Add(uint8(1), []byte{0, 3, 0, 4, 0, 40})
	f.Add(uint8(2), []byte{0, 50, 0, 51, 0, 56, 0, 57, 0, 62})
	f.Add(uint8(3), []byte{0, 1, 0, 17, 0, 33, 0, 49, 0, 65, 0, 81, 0, 97, 0, 113})
	f.Fuzz(func(t *testing.T, graphSel uint8, raw []byte) {
		i := int(graphSel) % len(graphs)
		g, flat, ref := graphs[i], flats[i], refs[i]
		flagged := fuzzFlags(raw, g.NumDets)
		truncBefore := flat.Truncations
		got := slices.Clone(flat.DecodeToEdges(flagged))
		want := ref.DecodeToEdges(flagged)
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d: corrections diverge\nflat: %v\nref:  %v\nflagged: %v", i, got, want, flagged)
		}
		if n := flat.Truncations - truncBefore; n != 0 {
			t.Fatalf("graph %d: %d truncations on flagged %v", i, n, flagged)
		}
		odd := make([]bool, g.NumDets)
		for _, ei := range got {
			e := g.Edges[ei]
			odd[e.U] = !odd[e.U]
			if e.V != Boundary {
				odd[e.V] = !odd[e.V]
			}
		}
		for _, d := range flagged {
			odd[d] = !odd[d]
		}
		if j := slices.Index(odd, true); j >= 0 {
			t.Fatalf("graph %d: correction %v leaves detector %d unmatched; flagged %v", i, got, j, flagged)
		}
	})
}
