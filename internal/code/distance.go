package code

import (
	"fmt"

	"surfdeformer/internal/lattice"
)

// Distance computation.
//
// The dressed distance of type T (T ∈ {X, Z}) is the minimum weight of a
// type-T Pauli that commutes with every stabilizer generator of the
// opposite type and anti-commutes with the opposite (bare) logical
// operator.
//
// For the planar codes in this repository every data qubit participates in
// at most two opposite-type stabilizer generators, so type-T operators are
// chains on a graph: each opposite-type generator is a vertex, each data
// qubit an edge between the generators it touches (with a single virtual
// boundary vertex ∂ absorbing missing endpoints). A chain is a valid
// operator iff it has even degree at every real vertex — i.e. it is a walk
// from ∂ to ∂ — and it is logical iff its crossing parity with the opposite
// bare logical is odd. The distance is therefore the shortest odd-parity
// ∂→∂ walk, found by BFS over (vertex, parity) states. Super-stabilizers
// appear merged, which is precisely how defect removal shortens logical
// operators; qubits invisible to every generator become ∂–∂ edges whose
// parity decides whether they are weight-1 dressed logicals.

// DistanceZ returns the minimum weight of a dressed logical Z operator.
func (c *Code) DistanceZ() int { return c.distance(lattice.ZCheck) }

// DistanceX returns the minimum weight of a dressed logical X operator.
func (c *Code) DistanceX() int { return c.distance(lattice.XCheck) }

// Distance returns min(DistanceX, DistanceZ), the code distance.
func (c *Code) Distance() int {
	dx, dz := c.DistanceX(), c.DistanceZ()
	if dx < dz {
		return dx
	}
	return dz
}

const unreachable = 1 << 30

// distance returns the memoized distance of the given type, running the
// chain-graph search on first use after a mutation.
func (c *Code) distance(logicalType lattice.CheckType) int {
	slot := &c.memo.dist[logicalType]
	if d := slot.Load(); d > 0 {
		return int(d - 1)
	}
	d := unreachable
	if qubits, err := c.shortestLogicalPath(logicalType); err == nil {
		d = len(qubits)
	}
	slot.Store(int64(d) + 1)
	return d
}

// chainEdge is one edge of the chain graph: the data qubit it represents,
// its endpoints (generator indices, or the boundary node), and its crossing
// parity with the opposite bare logical.
type chainEdge struct {
	u, v   int32
	qubit  lattice.Coord
	parity bool
}

// chainGraph builds the chain graph for type-T logicals. It returns the
// edge list, one edge per data qubit in sorted order, and the number of
// real vertices (the boundary node has index nGen).
func (c *Code) chainGraph(logicalType lattice.CheckType) (edges []chainEdge, nGen int, err error) {
	consType := logicalType.Opposite()
	qx := c.dataIndex()
	n := len(qx.list)
	// ends[2i], ends[2i+1] are the first two generators touching qubit i,
	// in generator order; touches[i] counts all of them.
	ends := make([]int32, 2*n)
	touches := make([]int32, n)
	for _, s := range c.stabs {
		t, ok := s.Op.CSSType()
		if !ok || t != consType || s.Op.IsIdentity() {
			continue
		}
		supp := s.Op.XSupport()
		if consType == lattice.ZCheck {
			supp = s.Op.ZSupport()
		}
		for _, q := range supp {
			if i := qx.index(q); i >= 0 {
				if touches[i] < 2 {
					ends[2*i+int(touches[i])] = int32(nGen)
				}
				touches[i]++
			}
		}
		nGen++
	}
	boundary := int32(nGen)
	// A type-T single-qubit operator anti-commutes with the opposite
	// logical exactly where that logical carries the other Pauli: Z(q)
	// crosses X̄ on its X support, X(q) crosses Z̄ on its Z support.
	crossing := c.logicalX.XSupport()
	if logicalType == lattice.XCheck {
		crossing = c.logicalZ.ZSupport()
	}
	edges = make([]chainEdge, n)
	for _, q := range crossing {
		if i := qx.index(q); i >= 0 {
			edges[i].parity = true
		}
	}
	// Deterministic edge order (and hence BFS tie-breaking): which
	// minimum-weight walk wins decides the installed logical representative,
	// and downstream consumers (the bandage construction's gauge demotion)
	// are representative-*class* invariant only — two representatives that
	// differ by a check later demoted to a gauge stop being equivalent.
	for i, q := range qx.list {
		e := &edges[i]
		e.qubit, e.u, e.v = q, boundary, boundary
		switch touches[i] {
		case 2:
			e.u, e.v = ends[2*i], ends[2*i+1]
		case 1:
			e.u = ends[2*i]
		case 0:
		default:
			return nil, 0, fmt.Errorf("code: qubit %v touched by %d %v-generators; chain graph undefined",
				q, touches[i], consType)
		}
	}
	return edges, nGen, nil
}

// shortestLogicalPath finds the qubits of a minimum-weight type-T logical:
// the shortest ∂→∂ walk with odd crossing parity, by BFS over (vertex,
// parity) states indexed 2·vertex + parity.
func (c *Code) shortestLogicalPath(logicalType lattice.CheckType) ([]lattice.Coord, error) {
	edges, nGen, err := c.chainGraph(logicalType)
	if err != nil {
		return nil, err
	}
	// Incident edges per vertex in edge order (CSR), self-loops once.
	nv := nGen + 1
	off := make([]int32, nv+1)
	for _, e := range edges {
		off[e.u+1]++
		if e.v != e.u {
			off[e.v+1]++
		}
	}
	for v := 0; v < nv; v++ {
		off[v+1] += off[v]
	}
	adj := make([]int32, off[nv])
	fill := append([]int32(nil), off[:nv]...)
	for i, e := range edges {
		adj[fill[e.u]] = int32(i)
		fill[e.u]++
		if e.v != e.u {
			adj[fill[e.v]] = int32(i)
			fill[e.v]++
		}
	}
	// Every state is enqueued at most once, so prevEdge marks it visited.
	start, goal := int32(2*nGen), int32(2*nGen+1)
	prevEdge := make([]int32, 2*nv)
	prevState := make([]int32, 2*nv)
	for i := range prevEdge {
		prevEdge[i] = -1
	}
	queue := make([]int32, 1, 2*nv)
	queue[0] = start
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		if s == goal {
			break
		}
		v := s >> 1
		for _, ei := range adj[off[v]:off[v+1]] {
			e := &edges[ei]
			to := e.u
			if to == v {
				to = e.v // the other endpoint; a self-loop stays at v
			}
			ns := to<<1 | s&1
			if e.parity {
				ns ^= 1
			}
			if ns != start && prevEdge[ns] < 0 {
				prevEdge[ns] = ei
				prevState[ns] = s
				queue = append(queue, ns)
			}
		}
	}
	if prevEdge[goal] < 0 {
		return nil, fmt.Errorf("code: no %v logical operator exists", logicalType)
	}
	var qubits []lattice.Coord
	for si := goal; prevEdge[si] >= 0; si = prevState[si] {
		qubits = append(qubits, edges[prevEdge[si]].qubit)
	}
	return qubits, nil
}
