package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"surfdeformer/internal/code"
	"surfdeformer/internal/deform"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/noise"
	"surfdeformer/internal/surgery"
)

// demPlanEqual asserts that got carries the reference plan want: the same
// fold order per mechanism (contribs, mechOff, once got's runs are
// unrolled), the same site index and dense qubit layout, and the same base
// model and code fingerprint.
func demPlanEqual(t *testing.T, got, want *DEM, ctx string) {
	t.Helper()
	if (got.plan == nil) != (want.plan == nil) {
		t.Fatalf("%s: plan presence %v, want %v", ctx, got.plan != nil, want.plan != nil)
	}
	if got.plan == nil {
		return
	}
	g, w := got.plan, want.plan
	if g.base != w.base || g.codeFP != w.codeFP {
		t.Fatalf("%s: plan base/fingerprint differ", ctx)
	}
	gc, wc := g.core, w.core
	gotOff, gotContribs := expandRuns(gc)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"contribs", gotContribs, wc.contribs},
		{"mechOff", gotOff, wc.mechOff},
		{"siteOff", gc.siteOff, wc.siteOff},
		{"siteMechs", gc.siteMechs, wc.siteMechs},
		{"coords", gc.coords, wc.coords},
		{"qIdx", gc.qIdx, wc.qIdx},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: plan %s differs", ctx, f.name)
		}
	}
}

// expandRuns unrolls a plan's contribution runs into one entry per folded
// contribution (n left zero), the form the forward reference records.
func expandRuns(pc *planCore) (mechOff []int32, contribs []planContrib) {
	mechOff = make([]int32, len(pc.mechOff))
	for mi := 0; mi+1 < len(pc.mechOff); mi++ {
		for _, c := range pc.contribs[pc.mechOff[mi]:pc.mechOff[mi+1]] {
			for range c.n {
				contribs = append(contribs, planContrib{a: c.a, b: c.b, kind: c.kind})
			}
		}
		mechOff[mi+1] = int32(len(contribs))
	}
	return mechOff, contribs
}

// assertMatchesReference builds c's DEM with the backward sweep and with
// the forward reference and requires bit-equality of everything either
// produces.
func assertMatchesReference(t *testing.T, c *code.Code, modelAt func(int) *noise.Model, rounds int, basis lattice.CheckType, record *noise.Model, ctx string) {
	t.Helper()
	got, err := buildDEM(c, modelAt, rounds, basis, record)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	want, err := buildDEMRef(c, modelAt, rounds, basis, record)
	if err != nil {
		t.Fatalf("%s: reference: %v", ctx, err)
	}
	demValuesEqual(t, got, want, ctx)
	demPlanEqual(t, got, want, ctx)
}

// specCode builds a deform.Spec, failing the test on error.
func specCode(t testing.TB, s *deform.Spec) *code.Code {
	t.Helper()
	c, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// equivalenceCodes is the code family of the reference-equivalence matrix:
// pristine patches, a removed data qubit with super-stabilizers, a bandaged
// data qubit, an enlarged patch carrying a removal, and a lattice-surgery
// merge.
func equivalenceCodes(t *testing.T) []struct {
	name string
	c    *code.Code
} {
	co := func(r, c int) lattice.Coord { return lattice.Coord{Row: r, Col: c} }
	bandaged, _ := bandagedCode(t, 5)
	enlarged := deform.NewSquareSpec(co(0, 0), 5)
	if err := enlarged.DataQRM(co(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := enlarged.PatchQADD(lattice.Right, 1); err != nil {
		t.Fatal(err)
	}
	left := deform.NewSquareSpec(co(0, 0), 3)
	if err := left.SyndromeQRM(co(2, 4)); err != nil {
		t.Fatal(err)
	}
	merged, err := surgery.Merge(left, deform.NewSquareSpec(co(0, 8), 3))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		c    *code.Code
	}{
		{"d3", freshCode(t, 3)},
		{"d5", freshCode(t, 5)},
		{"d7", freshCode(t, 7)},
		{"d5-removed", deformedCode(t)},
		{"d5-bandaged", bandaged},
		{"d5-enlarged", specCode(t, enlarged)},
		{"d3+d3-merged", specCode(t, merged)},
	}
}

// equivalenceModels covers every rate source buildDEM consults: scalar
// rates (a patch base), per-site overrides, defective qubits, the
// correlated two-qubit channel, and a zero idle rate (faults skipped).
func equivalenceModels(c *code.Code) []struct {
	name string
	m    *noise.Model
} {
	data := c.DataQubits()
	sites := append(append([]lattice.Coord(nil), data...), c.SyndromeQubits()...)
	overlay := randomOverlay(rand.New(rand.NewSource(int64(len(sites)))), sites, 1e-3)
	return []struct {
		name string
		m    *noise.Model
	}{
		{"uniform", noise.Uniform(1e-3)},
		{"site-rates", noise.Uniform(1e-3).WithSiteRates(overlay)},
		{"defective", noise.Uniform(1e-3).WithDefects([]lattice.Coord{data[0], data[len(data)/2]}, 0.5)},
		{"correlated", noise.Uniform(1e-3).WithCorrelated(4e-4)},
		{"no-idle", &noise.Model{P2: 2e-3, PM: 1e-3}},
	}
}

// TestDEMBuildMatchesForwardReference pins the backward-sweep builder to
// the forward-propagation reference across codes × bases × rounds × noise
// models, plus phased builds: NumDets, the detector layout, observables,
// rawMechs, every mechanism (P compared with ==) and the contribution plan
// must all be bit-identical.
func TestDEMBuildMatchesForwardReference(t *testing.T) {
	roundsSet := []int{2, 3, 6, 8}
	for _, tc := range equivalenceCodes(t) {
		models := equivalenceModels(tc.c)
		for _, basis := range []lattice.CheckType{lattice.ZCheck, lattice.XCheck} {
			for _, rounds := range roundsSet {
				for _, md := range models {
					m := md.m
					ctx := fmt.Sprintf("%s/%v/r%d/%s", tc.name, basis, rounds, md.name)
					assertMatchesReference(t, tc.c, func(int) *noise.Model { return m }, rounds, basis, patchableBase(m), ctx)
				}
				// Phased: nominal for one round, then a defect onset.
				nominal, defective := models[0].m, models[2].m
				modelAt := func(r int) *noise.Model {
					if r < 1 {
						return nominal
					}
					return defective
				}
				assertMatchesReference(t, tc.c, modelAt, rounds, basis, nil,
					fmt.Sprintf("%s/%v/r%d/phased", tc.name, basis, rounds))
			}
		}
	}
}

// TestBuildPhasedDEMMatchesForwardReference checks the public phased entry
// point end to end against a reference build of the same phase schedule.
func TestBuildPhasedDEMMatchesForwardReference(t *testing.T) {
	c := deformedCode(t)
	nominal := noise.Uniform(1e-3)
	hot := nominal.WithDefects(c.DataQubits()[:3], 0.5)
	got, err := BuildPhasedDEM(c, []Phase{{2, nominal}, {3, hot}}, lattice.XCheck)
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildDEMRef(c, func(r int) *noise.Model {
		if r < 2 {
			return nominal
		}
		return hot
	}, 5, lattice.XCheck, nil)
	if err != nil {
		t.Fatal(err)
	}
	demValuesEqual(t, got, want, "phased")
	demPlanEqual(t, got, want, "phased")
}

// TestCmpDecimalMatchesStringOrder checks the merge-order comparator
// against byte order on decimal strings, including the prefix and
// "10 before 2" cases the emission order depends on.
func TestCmpDecimalMatchesStringOrder(t *testing.T) {
	for a := int32(0); a < 1200; a += 7 {
		for b := int32(0); b < 1200; b += 3 {
			sa, sb := fmt.Sprint(a), fmt.Sprint(b)
			want := 0
			if sa < sb {
				want = -1
			} else if sa > sb {
				want = 1
			}
			if got := cmpDecimal(a, b); got != want {
				t.Fatalf("cmpDecimal(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// FuzzDEMBuild drives the reference-equivalence check over randomly
// deformed codes: the input picks the distance, a data qubit to remove, a
// syndrome qubit to remove, a data qubit to bandage, the basis, the number
// of rounds and a site-rate overlay. Inputs that select an invalid
// deformation are skipped.
func FuzzDEMBuild(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(0), uint16(0), false, uint8(1), int64(0))
	f.Add(uint8(1), uint16(13), uint16(0), uint16(0), true, uint8(2), int64(7))
	f.Add(uint8(1), uint16(0), uint16(0), uint16(5), false, uint8(3), int64(3))
	f.Add(uint8(0), uint16(0), uint16(4), uint16(0), true, uint8(0), int64(11))
	f.Fuzz(func(t *testing.T, dSel uint8, removeSel, syndromeSel, bandageSel uint16, xBasis bool, roundsSel uint8, overlaySeed int64) {
		d := 3 + 2*int(dSel%2)
		spec := deform.NewSquareSpec(lattice.Coord{}, d)
		pristine, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if removeSel != 0 {
			data := pristine.DataQubits()
			if err := spec.DataQRM(data[int(removeSel)%len(data)]); err != nil {
				t.Skip(err)
			}
		}
		if syndromeSel != 0 {
			syn := pristine.SyndromeQubits()
			if err := spec.SyndromeQRM(syn[int(syndromeSel)%len(syn)]); err != nil {
				t.Skip(err)
			}
		}
		c, err := spec.Build()
		if err != nil {
			t.Skip(err)
		}
		if bandageSel != 0 {
			data := c.DataQubits()
			if _, err := deform.BandageQubit(c, data[int(bandageSel)%len(data)]); err != nil {
				t.Skip(err)
			}
		}
		basis := lattice.ZCheck
		if xBasis {
			basis = lattice.XCheck
		}
		rounds := 2 + int(roundsSel%5)
		model := noise.Uniform(1e-3)
		if overlaySeed != 0 {
			sites := append(c.DataQubits(), c.SyndromeQubits()...)
			model = model.WithSiteRates(randomOverlay(rand.New(rand.NewSource(overlaySeed)), sites, 1e-3))
		}
		assertMatchesReference(t, c, func(int) *noise.Model { return model }, rounds, basis, patchableBase(model), "fuzz")
	})
}

// BenchmarkDEMBuildVsReference pairs the backward-sweep builder with the
// forward reference on the same shapes in one run: <shape>/new and
// <shape>/ref report each builder's cost and allocations (-benchmem), and
// <shape>/ratio interleaves the two and reports new/ref, a speedup that
// does not depend on the machine.
func BenchmarkDEMBuildVsReference(b *testing.B) {
	d5 := specCode(b, deform.NewSquareSpec(lattice.Coord{}, 5))
	d7 := specCode(b, deform.NewSquareSpec(lattice.Coord{}, 7))
	removed := deform.NewSquareSpec(lattice.Coord{}, 5)
	if err := removed.DataQRM(lattice.Coord{Row: 5, Col: 5}); err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name string
		c    *code.Code
	}{
		{"d5x6", d5},
		{"d7x6", d7},
		{"d5-removed-x6", specCode(b, removed)},
	}
	model := noise.Uniform(1e-3)
	modelAt := func(int) *noise.Model { return model }
	build := func(b *testing.B, c *code.Code, ref bool) {
		var err error
		if ref {
			_, err = buildDEMRef(c, modelAt, 6, lattice.ZCheck, model)
		} else {
			_, err = buildDEM(c, modelAt, 6, lattice.ZCheck, model)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, sh := range shapes {
		b.Run(sh.name+"/new", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				build(b, sh.c, false)
			}
		})
		b.Run(sh.name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				build(b, sh.c, true)
			}
		})
		b.Run(sh.name+"/ratio", func(b *testing.B) {
			var tNew, tRef time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				build(b, sh.c, false)
				t1 := time.Now()
				build(b, sh.c, true)
				tNew += t1.Sub(t0)
				tRef += time.Since(t1)
			}
			b.ReportMetric(float64(tNew.Nanoseconds())/float64(b.N), "new-ns/op")
			b.ReportMetric(float64(tRef.Nanoseconds())/float64(b.N), "ref-ns/op")
			b.ReportMetric(float64(tNew)/float64(tRef), "new/ref")
		})
	}
}

// TestCodeFingerprintMatchesStringForm pins the append-based code
// fingerprint (code.Code.Fingerprint, the code half of every DEM cache key)
// to the fmt/String serialization it replaced, byte for byte, on codes with
// removals, super-stabilizers, gauges and Y-type logicals.
func TestCodeFingerprintMatchesStringForm(t *testing.T) {
	for _, tc := range equivalenceCodes(t) {
		c := tc.c
		var sb strings.Builder
		sb.WriteString("D:")
		for _, q := range c.DataQubits() {
			fmt.Fprintf(&sb, "%d.%d,", q.Row, q.Col)
		}
		sb.WriteString("S:")
		for _, q := range c.SyndromeQubits() {
			fmt.Fprintf(&sb, "%d.%d,", q.Row, q.Col)
		}
		sb.WriteString("stabs:")
		for _, s := range c.Stabs() {
			fmt.Fprintf(&sb, "{%s@%d.%d/%v/%v}", s.Op.String(), s.Ancilla.Row, s.Ancilla.Col, s.Direct, s.MemberIDs)
		}
		sb.WriteString("gauges:")
		for _, g := range c.Gauges() {
			fmt.Fprintf(&sb, "{%s@%d.%d/%v}", g.Op.String(), g.Ancilla.Row, g.Ancilla.Col, g.Direct)
		}
		fmt.Fprintf(&sb, "LX:%s,LZ:%s", c.LogicalX().String(), c.LogicalZ().String())
		if got := c.Fingerprint(); got != sb.String() {
			t.Fatalf("%s: fingerprint\n%s\nwant\n%s", tc.name, got, sb.String())
		}
	}
}

// TestMechMergerHashCollision drives the merger's collision chain, which
// 64-bit signature hashes practically never reach: a second signature
// forced onto the first one's hash must get its own entry, and both must
// keep folding into their own entries.
func TestMechMergerHashCollision(t *testing.T) {
	mm := newMechMerger(false, 1)
	a, b := []int32{1, 2}, []int32{3}
	mm.add(0.1, a, false, planContrib{})
	mm.index[sigHash(b, true)] = mm.index[sigHash(a, false)]
	mm.add(0.2, b, true, planContrib{})
	mm.add(0.3, a, false, planContrib{})
	mm.add(0.4, b, true, planContrib{})
	if len(mm.entries) != 2 || mm.entries[0].next != 1 {
		t.Fatalf("entries %+v, want two chained entries", mm.entries)
	}
	fold := func(ps ...float64) (q float64) {
		for _, p := range ps {
			q = q + p - 2*q*p
		}
		return q
	}
	for e, want := range []float64{fold(0.1, 0.3), fold(0.2, 0.4)} {
		if got := mm.entries[e].p; got != want {
			t.Errorf("entry %d: p = %v, want %v", e, got, want)
		}
	}
}
