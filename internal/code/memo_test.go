package code

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"surfdeformer/internal/lattice"
	"surfdeformer/internal/pauli"
)

// removeCentre hand-executes DataQ_RM on data qubit q (fig. 6a): the checks
// on q become gauges stripped of q, their products become super-stabilizers,
// and q leaves the code.
func removeCentre(t testing.TB, c *Code, q lattice.Coord) {
	t.Helper()
	notQ := func(p lattice.Coord) bool { return p != q }
	for _, typ := range []lattice.CheckType{lattice.XCheck, lattice.ZCheck} {
		prod := pauli.Op{}
		var ids []int
		for _, s := range c.StabsOn(q, typ) {
			c.RemoveStab(s.ID)
			prod = pauli.Mul(prod, s.Op)
			ids = append(ids, c.AddGauge(s.Op.RestrictedTo(notQ), s.Ancilla, false))
		}
		c.AddSuperStab(prod, ids)
	}
	if err := c.RemoveDataQubit(q); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// randomDeformed applies random structural edits to a fresh patch: checks
// disabled, same-type checks merged, qubits stripped out of every operator
// and removed, isolated qubits added, logicals multiplied by checks, and
// duplicated checks that put a qubit under three generators. The result is
// generally not a valid code, which is the point: the chain-graph search is
// a pure function of the structure and must agree with the reference on
// every input, error paths included.
func randomDeformed(rng *rand.Rand, d int) *Code {
	c := FromPatch(lattice.NewPatch(lattice.Coord{}, d))
	for step, n := 0, 1+rng.Intn(6); step < n; step++ {
		stabs := c.Stabs()
		s := stabs[rng.Intn(len(stabs))]
		switch rng.Intn(6) {
		case 0:
			c.RemoveStab(s.ID)
		case 1:
			typ, _ := s.Op.CSSType()
			for _, q := range s.Op.Support() {
				for _, o := range c.StabsOn(q, typ) {
					if o.ID != s.ID {
						c.ReplaceStabOp(s.ID, pauli.Mul(s.Op, o.Op))
						c.RemoveStab(o.ID)
						break
					}
				}
			}
		case 2:
			qs := c.DataQubits()
			q := qs[rng.Intn(len(qs))]
			notQ := func(p lattice.Coord) bool { return p != q }
			for _, o := range c.Stabs() {
				c.ReplaceStabOp(o.ID, o.Op.RestrictedTo(notQ))
			}
			c.SetLogicalX(c.LogicalX().RestrictedTo(notQ))
			c.SetLogicalZ(c.LogicalZ().RestrictedTo(notQ))
			if err := c.RemoveDataQubit(q); err != nil {
				panic(err)
			}
		case 3:
			q := lattice.Coord{Row: 2*d + 1 + 2*step, Col: 1}
			if err := c.AddDataQubit(q); err != nil {
				panic(err)
			}
			if rng.Intn(2) == 0 {
				c.SetLogicalX(pauli.Mul(c.LogicalX(), pauli.X(q)))
			}
		case 4:
			if typ, _ := s.Op.CSSType(); typ == lattice.XCheck {
				c.SetLogicalX(pauli.Mul(c.LogicalX(), s.Op))
			} else {
				c.SetLogicalZ(pauli.Mul(c.LogicalZ(), s.Op))
			}
		case 5:
			c.AddStab(s.Op, s.Ancilla)
		}
	}
	return c
}

// TestShortestPathMatchesReference requires the index-based chain-graph
// search to return exactly the reference's qubit list (or error), not just
// the same length: the list is the representative RefreshLogicals installs.
func TestShortestPathMatchesReference(t *testing.T) {
	check := func(name string, c *Code) {
		t.Helper()
		for _, typ := range []lattice.CheckType{lattice.XCheck, lattice.ZCheck} {
			got, gotErr := c.shortestLogicalPath(typ)
			want, wantErr := c.shortestLogicalPathRef(typ)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s %v: error %v, reference %v", name, typ, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: path %v, reference %v", name, typ, got, want)
			}
		}
	}
	for _, d := range []int{2, 3, 5, 7, 9} {
		check("pristine", mustPatchCode(t, d))
	}
	check("rect", FromPatch(lattice.NewRectPatch(lattice.Coord{}, 3, 5)))
	rm := mustPatchCode(t, 5)
	removeCentre(t, rm, lattice.Coord{Row: 5, Col: 5})
	check("d5-removed", rm)
	if err := rm.RefreshLogicals(); err != nil {
		t.Fatal(err)
	}
	check("d5-removed-refreshed", rm)
	rng := rand.New(rand.NewSource(1))
	errs := 0
	for i := 0; i < 400; i++ {
		c := randomDeformed(rng, 3+2*rng.Intn(3))
		if _, err := c.shortestLogicalPathRef(lattice.XCheck); err != nil {
			errs++
		}
		check("random", c)
	}
	if errs == 0 {
		t.Fatal("random family never reached an error path")
	}
}

// memoValues reads every memoized value of c.
type memoValues struct {
	dx, dz int
	qubits []lattice.Coord
	fp     string
}

func readMemo(c *Code) memoValues {
	return memoValues{c.DistanceX(), c.DistanceZ(), c.DataQubits(), c.Fingerprint()}
}

// TestMemoCoherence fills the memo, applies one write, and requires every
// memoized value to equal a fresh Clone's (which starts with an empty
// memo). Each case changes the fingerprint, so a write that forgot to
// invalidate serves a stale value and fails here.
func TestMemoCoherence(t *testing.T) {
	q := lattice.Coord{Row: 5, Col: 5}
	extra, spare := lattice.Coord{Row: 11, Col: 11}, lattice.Coord{Row: 12, Col: 12}
	cases := []struct {
		name   string
		setup  func(c *Code) // optional, applied before the memo is read
		mutate func(t *testing.T, c *Code)
	}{
		{"AddStab", nil, func(t *testing.T, c *Code) { c.AddStab(pauli.X(q), lattice.Coord{}) }},
		{"AddDirectStab", nil, func(t *testing.T, c *Code) { c.AddDirectStab(pauli.Z(q)) }},
		{"AddSuperStab", nil, func(t *testing.T, c *Code) {
			g := c.Gauges()
			c.AddSuperStab(pauli.Mul(g[0].Op, g[1].Op), []int{g[0].ID, g[1].ID})
		}},
		{"AddGauge", nil, func(t *testing.T, c *Code) { c.AddGauge(pauli.Z(q), q, true) }},
		{"RemoveStab", nil, func(t *testing.T, c *Code) {
			for _, s := range c.StabsOn(lattice.Coord{Row: 3, Col: 3}, lattice.XCheck) {
				c.RemoveStab(s.ID)
			}
		}},
		{"RemoveGauge", nil, func(t *testing.T, c *Code) { c.RemoveGauge(c.Gauges()[0].ID) }},
		{"ReplaceStabOp", nil, func(t *testing.T, c *Code) {
			s := c.StabsOn(lattice.Coord{Row: 3, Col: 3}, lattice.ZCheck)
			c.ReplaceStabOp(s[0].ID, pauli.Mul(s[0].Op, s[1].Op))
		}},
		{"ReplaceGaugeOp", nil, func(t *testing.T, c *Code) {
			g := c.Gauges()[0]
			c.ReplaceGaugeOp(g.ID, g.Op.RestrictedTo(func(lattice.Coord) bool { return false }))
		}},
		{"AddDataQubit", nil, func(t *testing.T, c *Code) {
			if err := c.AddDataQubit(extra); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveDataQubit", func(c *Code) { c.AddDataQubit(extra) }, func(t *testing.T, c *Code) {
			if err := c.RemoveDataQubit(extra); err != nil {
				t.Fatal(err)
			}
		}},
		{"AddSyndromeQubit", nil, func(t *testing.T, c *Code) {
			if err := c.AddSyndromeQubit(spare); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemoveSyndromeQubit", func(c *Code) { c.AddSyndromeQubit(spare) }, func(t *testing.T, c *Code) {
			if err := c.RemoveSyndromeQubit(spare); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetLogicalX", nil, func(t *testing.T, c *Code) { c.SetLogicalX(pauli.X(q)) }},
		{"SetLogicalZ", nil, func(t *testing.T, c *Code) { c.SetLogicalZ(pauli.Z(q)) }},
		{"RefreshLogicals", nil, func(t *testing.T, c *Code) {
			if err := c.RefreshLogicals(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Adopt", nil, func(t *testing.T, c *Code) { c.Adopt(mustPatchCode(t, 3)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A d=5 patch with its centre removed (so it carries gauges and
			// super-stabilizers) and a logical X that is not minimal (so
			// RefreshLogicals changes it).
			c := mustPatchCode(t, 5)
			removeCentre(t, c, q)
			lx := c.LogicalX()
			for _, s := range c.StabsOn(lx.Support()[0], lattice.XCheck) {
				if !s.IsSuper() {
					c.SetLogicalX(pauli.Mul(lx, s.Op))
					break
				}
			}
			if tc.setup != nil {
				tc.setup(c)
			}
			before := readMemo(c)
			tc.mutate(t, c)
			got, want := readMemo(c), readMemo(c.Clone())
			if got.fp == before.fp {
				t.Fatal("mutation left the fingerprint unchanged; the case tests nothing")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("memoized %+v\nrecomputed %+v", got, want)
			}
		})
	}
}

// TestMemoConcurrentReaders has 8 goroutines fill and read the memo of one
// shared code at once; run under -race it pins the atomics.
func TestMemoConcurrentReaders(t *testing.T) {
	c := mustPatchCode(t, 5)
	removeCentre(t, c, lattice.Coord{Row: 5, Col: 5})
	want := readMemo(c.Clone())
	var wg sync.WaitGroup
	got := make([]memoValues, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got[i] = readMemo(c)
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("reader %d: %+v, want %+v", i, g, want)
		}
	}
}

// TestMemoizedDistanceZeroAllocs pins a memoized distance read to zero
// allocations: traj scores every chunk at the current distance.
func TestMemoizedDistanceZeroAllocs(t *testing.T) {
	c := mustPatchCode(t, 5)
	c.DistanceX()
	if n := testing.AllocsPerRun(100, func() { c.DistanceX() }); n != 0 {
		t.Fatalf("memoized DistanceX allocates %v times", n)
	}
}

// TestAppendOpMatchesString pins the fingerprint's operator encoding to
// pauli.Op.String on the identity, Y and mixed operators.
func TestAppendOpMatchesString(t *testing.T) {
	for _, op := range []pauli.Op{{}, pauli.Y(lattice.Coord{Row: 1, Col: 3}), pauli.FromSupports(
		[]lattice.Coord{{Row: 1, Col: 1}, {Row: 3, Col: 1}}, []lattice.Coord{{Row: 1, Col: 1}, {Row: 1, Col: 5}})} {
		if got := string(appendOp(nil, op)); got != op.String() {
			t.Fatalf("appendOp = %q, want %q", got, op.String())
		}
	}
}

// BenchmarkDistanceVsReference times both distances of a code whose memo
// was just invalidated (the cost after every deformation) against the
// reference search. /ratio interleaves the two in one run and reports
// new/ref, so machine noise cancels.
func BenchmarkDistanceVsReference(b *testing.B) {
	removed := FromPatch(lattice.NewPatch(lattice.Coord{}, 5))
	removeCentre(b, removed, lattice.Coord{Row: 5, Col: 5})
	shapes := []struct {
		name string
		c    *Code
	}{
		{"d5", FromPatch(lattice.NewPatch(lattice.Coord{}, 5))},
		{"d7", FromPatch(lattice.NewPatch(lattice.Coord{}, 7))},
		{"d5-removed", removed},
	}
	run := func(c *Code, ref bool) {
		if ref {
			c.shortestLogicalPathRef(lattice.XCheck)
			c.shortestLogicalPathRef(lattice.ZCheck)
			return
		}
		c.invalidate()
		c.DistanceX()
		c.DistanceZ()
	}
	for _, sh := range shapes {
		b.Run(sh.name+"/new", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(sh.c, false)
			}
		})
		b.Run(sh.name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(sh.c, true)
			}
		})
		b.Run(sh.name+"/ratio", func(b *testing.B) {
			var tNew, tRef time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				run(sh.c, false)
				t1 := time.Now()
				run(sh.c, true)
				tNew += t1.Sub(t0)
				tRef += time.Since(t1)
			}
			b.ReportMetric(float64(tNew)/float64(tRef), "new/ref")
		})
	}
}
