package code

import (
	"fmt"

	"surfdeformer/internal/gf2"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// opVec encodes op as a length-2n symplectic vector [x-part | z-part] over
// the data-qubit index x (n = len(x.list)).
func opVec(op pauli.Op, x *qubitIndex) (gf2.Vec, error) {
	n := len(x.list)
	v := gf2.NewVec(2 * n)
	for _, q := range op.XSupport() {
		i := x.index(q)
		if i < 0 {
			return gf2.Vec{}, fmt.Errorf("code: operator acts on inactive qubit %v", q)
		}
		v.Set(i, true)
	}
	for _, q := range op.ZSupport() {
		i := x.index(q)
		if i < 0 {
			return gf2.Vec{}, fmt.Errorf("code: operator acts on inactive qubit %v", q)
		}
		v.Set(n+i, true)
	}
	return v, nil
}

// Params reports the subsystem-code parameters derived from the measured
// operator set: n physical data qubits, k logical qubits, l gauge qubits.
//
// Let M be the group generated by all measured operators, r = rank(M), and
// let 2l be the rank of the anti-commutation Gram matrix over any generating
// set of M (the symplectic form is non-degenerate on the gauge-pair
// quotient, so its rank is even and equals 2l). Then the true center of M
// has rank r − 2l and k = n − r + l. This is robust to intermediate states
// where a super-stabilizer exists in the group but is not listed explicitly.
func (c *Code) Params() (n, k, l int, err error) {
	x := c.dataIndex()
	nq := len(x.list)
	ops := make([]pauli.Op, 0, len(c.stabs)+len(c.gauges))
	for _, s := range c.stabs {
		ops = append(ops, s.Op)
	}
	for _, g := range c.gauges {
		ops = append(ops, g.Op)
	}
	m := gf2.NewMatrix(0, 2*nq)
	for _, op := range ops {
		v, err := opVec(op, x)
		if err != nil {
			return 0, 0, 0, err
		}
		m.AppendRow(v)
	}
	r := m.Rank()
	gram := gf2.NewMatrix(len(ops), len(ops))
	for i := range ops {
		for j := i + 1; j < len(ops); j++ {
			if !ops[i].Commutes(ops[j]) {
				gram.Set(i, j, true)
				gram.Set(j, i, true)
			}
		}
	}
	gr := gram.Rank()
	if gr%2 != 0 {
		return 0, 0, 0, fmt.Errorf("code: Gram matrix rank %d is odd; symplectic structure broken", gr)
	}
	l = gr / 2
	k = nq - r + l
	return nq, k, l, nil
}

// CenterDeficit reports how many independent center elements of the measured
// group are missing from the explicit stabilizer list (super-stabilizers not
// yet recorded). A fully-booked code has deficit zero: every deterministic
// parity check is available to the decoder.
func (c *Code) CenterDeficit() (int, error) {
	x := c.dataIndex()
	nq := len(x.list)
	n, k, l, err := c.Params()
	if err != nil {
		return 0, err
	}
	_ = n
	centerRank := nq - k - l
	stabM := gf2.NewMatrix(0, 2*nq)
	for _, s := range c.stabs {
		v, err := opVec(s.Op, x)
		if err != nil {
			return 0, err
		}
		stabM.AppendRow(v)
	}
	return centerRank - stabM.Rank(), nil
}

// Validate checks the invariants the paper's Theorem 1 and Definition 4
// require of a valid deformed code:
//
//  1. stabilizer generators are independent and mutually commuting;
//  2. every gauge operator commutes with every stabilizer;
//  3. bare logical operators commute with all stabilizers and gauges,
//     and anti-commute with each other;
//  4. super-stabilizers equal the product of their gauge members;
//  5. all operators act only on active data qubits; all ancilla-measured
//     operators use active syndrome qubits, one operator per ancilla;
//  6. exactly one logical qubit is encoded (k = 1).
func (c *Code) Validate() error {
	// (1) pairwise stabilizer commutation.
	for i, a := range c.stabs {
		for _, b := range c.stabs[i+1:] {
			if !a.Op.Commutes(b.Op) {
				return fmt.Errorf("code: stabilizers %d and %d anti-commute", a.ID, b.ID)
			}
		}
	}
	// (2) gauges commute with stabilizers.
	for _, g := range c.gauges {
		for _, s := range c.stabs {
			if !g.Op.Commutes(s.Op) {
				return fmt.Errorf("code: gauge %d anti-commutes with stabilizer %d", g.ID, s.ID)
			}
		}
	}
	// (3) logical operator relations.
	if c.logicalX.Commutes(c.logicalZ) {
		return fmt.Errorf("code: logical X and Z commute; they must anti-commute")
	}
	for _, s := range c.stabs {
		if !c.logicalX.Commutes(s.Op) {
			return fmt.Errorf("code: logical X anti-commutes with stabilizer %d", s.ID)
		}
		if !c.logicalZ.Commutes(s.Op) {
			return fmt.Errorf("code: logical Z anti-commutes with stabilizer %d", s.ID)
		}
	}
	for _, g := range c.gauges {
		if !c.logicalX.Commutes(g.Op) {
			return fmt.Errorf("code: logical X anti-commutes with gauge %d", g.ID)
		}
		if !c.logicalZ.Commutes(g.Op) {
			return fmt.Errorf("code: logical Z anti-commutes with gauge %d", g.ID)
		}
	}
	// (4) super-stabilizer member products.
	for _, s := range c.stabs {
		if !s.IsSuper() {
			continue
		}
		prod := pauli.Op{}
		for _, id := range s.MemberIDs {
			g, ok := c.GaugeByID(id)
			if !ok {
				return fmt.Errorf("code: super-stabilizer %d references missing gauge %d", s.ID, id)
			}
			prod = pauli.Mul(prod, g.Op)
		}
		if !prod.Equal(s.Op) {
			return fmt.Errorf("code: super-stabilizer %d != product of members", s.ID)
		}
	}
	// (5) support and ancilla hygiene.
	usedAncilla := map[lattice.Coord]int{}
	for _, s := range c.stabs {
		for _, q := range s.Op.Support() {
			if !c.data[q] {
				return fmt.Errorf("code: stabilizer %d acts on inactive qubit %v", s.ID, q)
			}
		}
		switch {
		case s.Direct:
			if s.Op.Weight() != 1 {
				return fmt.Errorf("code: direct stabilizer %d has weight %d, want 1", s.ID, s.Op.Weight())
			}
		case !s.IsSuper():
			if !c.syndromes[s.Ancilla] {
				return fmt.Errorf("code: stabilizer %d uses inactive ancilla %v", s.ID, s.Ancilla)
			}
			usedAncilla[s.Ancilla]++
		}
	}
	for _, g := range c.gauges {
		for _, q := range g.Op.Support() {
			if !c.data[q] {
				return fmt.Errorf("code: gauge %d acts on inactive qubit %v", g.ID, q)
			}
		}
		if !g.Direct {
			if !c.syndromes[g.Ancilla] {
				return fmt.Errorf("code: gauge %d uses inactive ancilla %v", g.ID, g.Ancilla)
			}
			usedAncilla[g.Ancilla]++
		}
	}
	for a, n := range usedAncilla {
		if n > 1 {
			return fmt.Errorf("code: ancilla %v measures %d operators", a, n)
		}
	}
	for _, q := range c.logicalX.Support() {
		if !c.data[q] {
			return fmt.Errorf("code: logical X acts on inactive qubit %v", q)
		}
	}
	for _, q := range c.logicalZ.Support() {
		if !c.data[q] {
			return fmt.Errorf("code: logical Z acts on inactive qubit %v", q)
		}
	}
	// (1 again) independence, and (6) k = 1.
	x := c.dataIndex()
	nq := len(x.list)
	stabM := gf2.NewMatrix(0, 2*nq)
	for _, s := range c.stabs {
		v, err := opVec(s.Op, x)
		if err != nil {
			return err
		}
		stabM.AppendRow(v)
	}
	if r := stabM.Rank(); r != len(c.stabs) {
		return fmt.Errorf("code: stabilizer generators dependent (rank %d of %d)", r, len(c.stabs))
	}
	_, k, _, err := c.Params()
	if err != nil {
		return err
	}
	if k != 1 {
		return fmt.Errorf("code: encodes k=%d logical qubits, want 1", k)
	}
	return nil
}
