package deform

import (
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
)

// TestDistanceMatchesExactOnDeformedCodes checks the chain-graph distances
// against the exponential oracle code.ExactDistance on every kind of
// deformed code the runtime produces: removed data and syndrome qubits
// (interior and boundary), bandages, enlarged patches and ASC-policy cuts,
// at d=3 and d=5. It also requires the memoized values to equal a fresh
// Clone's.
func TestDistanceMatchesExactOnDeformedCodes(t *testing.T) {
	applied := func(d int, policy Policy, defects ...lattice.Coord) func(t *testing.T) *code.Code {
		return func(t *testing.T) *code.Code {
			s := NewSquareSpec(co(0, 0), d)
			if err := ApplyDefects(s, defects, policy); err != nil {
				t.Fatal(err)
			}
			return mustBuild(t, s)
		}
	}
	bandaged := func(d int, sites ...lattice.Coord) func(t *testing.T) *code.Code {
		return func(t *testing.T) *code.Code {
			c := freshCode(t, d)
			for _, q := range sites {
				if _, err := BandageQubit(c, q); err != nil {
					t.Fatalf("bandage %v: %v", q, err)
				}
			}
			return c
		}
	}
	enlarged := func(d int, defects ...lattice.Coord) func(t *testing.T) *code.Code {
		return func(t *testing.T) *code.Code {
			s := NewSquareSpec(co(0, 0), d)
			if err := ApplyDefects(s, defects, PolicySurfDeformer); err != nil {
				t.Fatal(err)
			}
			res, err := Enlarge(s, d, d, nil, PolicySurfDeformer, UniformBudget(1))
			if err != nil {
				t.Fatal(err)
			}
			return res.Code
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *code.Code
	}{
		{"d3-data-interior", applied(3, PolicySurfDeformer, co(3, 3))},
		{"d3-data-boundary", applied(3, PolicySurfDeformer, co(1, 3))},
		{"d3-syndrome-interior", applied(3, PolicySurfDeformer, co(2, 2))},
		{"d5-data-interior", applied(5, PolicySurfDeformer, co(5, 5))},
		{"d5-data-boundary", applied(5, PolicySurfDeformer, co(5, 9))},
		{"d5-data-pair", applied(5, PolicySurfDeformer, co(5, 5), co(5, 3))},
		{"d5-syndrome-interior", applied(5, PolicySurfDeformer, co(4, 4))},
		{"d5-syndrome-boundary", applied(5, PolicySurfDeformer, co(0, 6))},
		{"d5-mixed", applied(5, PolicySurfDeformer, co(3, 3), co(6, 6), co(9, 5))},
		{"d3-asc", applied(3, PolicyASC, co(2, 2))},
		{"d5-asc-syndrome", applied(5, PolicyASC, co(4, 4))},
		{"d5-asc-boundary", applied(5, PolicyASC, co(5, 9), co(1, 5))},
		{"d5-no-balance", applied(5, PolicyNoBalance, co(5, 9))},
		{"d3-bandage", bandaged(3, co(3, 3))},
		{"d5-bandage", bandaged(5, co(5, 5))},
		{"d5-bandage-pair", bandaged(5, co(3, 3), co(7, 7))},
		{"d3-enlarged", enlarged(3, co(3, 3))},
		{"d5-enlarged", enlarged(5, co(5, 5))},
	}
	pristine := map[string]bool{freshCode(t, 3).Fingerprint(): true, freshCode(t, 5).Fingerprint(): true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			if pristine[c.Fingerprint()] {
				t.Fatal("the deformation left a pristine code")
			}
			fresh := c.Clone()
			for _, typ := range []lattice.CheckType{lattice.XCheck, lattice.ZCheck} {
				exact, err := c.ExactDistance(typ)
				if err != nil {
					t.Fatalf("%v: exact: %v", typ, err)
				}
				graph, again := c.DistanceZ(), fresh.DistanceZ()
				if typ == lattice.XCheck {
					graph, again = c.DistanceX(), fresh.DistanceX()
				}
				if graph != exact || again != exact {
					t.Errorf("%v: graph %d (fresh clone %d) vs exact %d", typ, graph, again, exact)
				}
			}
		})
	}
}
