package code

import (
	"fmt"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// The chain-graph distance path as it stood before the index-based
// rewrite, kept verbatim (apart from the names) as a test-only reference:
// a Coord-keyed generator map, a pauli.Op per qubit for the crossing
// parity, and a state-struct BFS. The live path must return the identical
// qubit list, since the list becomes the installed logical representative.

// chainEdgeRef is the reference's edge type (int endpoints).
type chainEdgeRef struct {
	u, v   int
	qubit  lattice.Coord
	parity bool
}

// chainGraphRef builds the chain graph for type-T logicals. It returns the
// edge list and the number of real vertices (the boundary node has index
// nGen).
func (c *Code) chainGraphRef(logicalType lattice.CheckType) (edges []chainEdgeRef, nGen int, err error) {
	consType := logicalType.Opposite()
	var gens []pauli.Op
	for _, s := range c.stabs {
		t, ok := s.Op.CSSType()
		if ok && t == consType && !s.Op.IsIdentity() {
			gens = append(gens, s.Op)
		}
	}
	genOf := map[lattice.Coord][]int{}
	for gi, g := range gens {
		for _, q := range g.Support() {
			genOf[q] = append(genOf[q], gi)
		}
	}
	nGen = len(gens)
	boundary := nGen
	crossing := c.logicalX
	if logicalType == lattice.XCheck {
		crossing = c.logicalZ
	}
	// Deterministic edge order (and hence BFS tie-breaking): which
	// minimum-weight walk wins decides the installed logical representative,
	// and downstream consumers (the bandage construction's gauge demotion)
	// are representative-*class* invariant only — two representatives that
	// differ by a check later demoted to a gauge stop being equivalent.
	for _, q := range c.DataQubits() {
		var op pauli.Op
		if logicalType == lattice.ZCheck {
			op = pauli.Z(q)
		} else {
			op = pauli.X(q)
		}
		parity := !op.Commutes(crossing)
		gs := genOf[q]
		switch len(gs) {
		case 2:
			edges = append(edges, chainEdgeRef{gs[0], gs[1], q, parity})
		case 1:
			edges = append(edges, chainEdgeRef{gs[0], boundary, q, parity})
		case 0:
			edges = append(edges, chainEdgeRef{boundary, boundary, q, parity})
		default:
			return nil, 0, fmt.Errorf("code: qubit %v touched by %d %v-generators; chain graph undefined",
				q, len(gs), consType)
		}
	}
	return edges, nGen, nil
}

// shortestLogicalPathRef finds the qubits of a minimum-weight type-T logical:
// the shortest ∂→∂ walk with odd crossing parity.
func (c *Code) shortestLogicalPathRef(logicalType lattice.CheckType) ([]lattice.Coord, error) {
	edges, nGen, err := c.chainGraphRef(logicalType)
	if err != nil {
		return nil, err
	}
	boundary := nGen
	adj := make([][]int, nGen+1) // edge indices per vertex
	for i, e := range edges {
		adj[e.u] = append(adj[e.u], i)
		if e.v != e.u {
			adj[e.v] = append(adj[e.v], i)
		}
	}
	// BFS over (vertex, parity).
	type state struct {
		v      int
		parity int
	}
	idx := func(s state) int { return s.v*2 + s.parity }
	dist := make([]int, (nGen+1)*2)
	prevEdge := make([]int, (nGen+1)*2)
	prevState := make([]int, (nGen+1)*2)
	for i := range dist {
		dist[i] = unreachable
		prevEdge[i] = -1
		prevState[i] = -1
	}
	start := state{boundary, 0}
	goal := state{boundary, 1}
	dist[idx(start)] = 0
	queue := []state{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == goal {
			break
		}
		for _, ei := range adj[s.v] {
			e := edges[ei]
			to := e.v
			if to == s.v && e.u != e.v {
				to = e.u
			}
			if e.u == e.v {
				to = s.v // self-loop at the boundary
			}
			p := s.parity
			if e.parity {
				p ^= 1
			}
			ns := state{to, p}
			if dist[idx(ns)] > dist[idx(s)]+1 {
				dist[idx(ns)] = dist[idx(s)] + 1
				prevEdge[idx(ns)] = ei
				prevState[idx(ns)] = idx(s)
				queue = append(queue, ns)
			}
		}
	}
	if dist[idx(goal)] >= unreachable {
		return nil, fmt.Errorf("code: no %v logical operator exists", logicalType)
	}
	var qubits []lattice.Coord
	for si := idx(goal); prevEdge[si] >= 0; si = prevState[si] {
		qubits = append(qubits, edges[prevEdge[si]].qubit)
	}
	return qubits, nil
}
