package deform

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
)

func freshCode(t testing.TB, d int) *code.Code {
	t.Helper()
	c, err := NewSpec(lattice.Coord{}, d, d).Build()
	if err != nil {
		t.Fatalf("build d=%d: %v", d, err)
	}
	return c
}

// interiorQubit finds a data qubit checked by two stabilizers of each type
// — the bulk case where the bandage promotes both merged super-stabilizers.
func interiorQubit(t testing.TB, c *code.Code) lattice.Coord {
	t.Helper()
	for _, q := range c.DataQubits() {
		if len(c.StabsOn(q, lattice.XCheck)) == 2 && len(c.StabsOn(q, lattice.ZCheck)) == 2 {
			return q
		}
	}
	t.Fatal("no interior qubit found")
	return lattice.Coord{}
}

// codeFingerprint canonicalizes a code for equality checks that must not
// depend on operator IDs: sorted operator strings per role plus the qubit
// sets and logicals.
func codeFingerprint(c *code.Code) string {
	return operatorFingerprint(c) + fmt.Sprintf(" lx=%v lz=%v", c.LogicalX(), c.LogicalZ())
}

// operatorFingerprint is codeFingerprint without the logical
// representatives, for comparing codes produced by separate Spec.Build
// calls: Build's representative choice is not canonical, and the runtime
// is invariant to it.
func operatorFingerprint(c *code.Code) string {
	var stabs, gauges []string
	for _, s := range c.Stabs() {
		stabs = append(stabs, fmt.Sprintf("%v super=%v", s.Op, s.IsSuper()))
	}
	for _, g := range c.Gauges() {
		gauges = append(gauges, fmt.Sprintf("%v direct=%v", g.Op, g.Direct))
	}
	sort.Strings(stabs)
	sort.Strings(gauges)
	return fmt.Sprintf("data=%v syn=%v stabs=%v gauges=%v",
		c.DataQubits(), c.SyndromeQubits(), stabs, gauges)
}

// checkMemo requires c's memoized derived values (filling any empty slot)
// to equal those of a fresh Clone, which recomputes them from scratch.
func checkMemo(t *testing.T, c *code.Code, when string) {
	t.Helper()
	fresh := c.Clone()
	if c.DistanceX() != fresh.DistanceX() || c.DistanceZ() != fresh.DistanceZ() ||
		!reflect.DeepEqual(c.DataQubits(), fresh.DataQubits()) || c.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("%s: memoized values differ from a recomputation", when)
	}
}

// TestBandageInterior pins the bulk construction: both merged products are
// promoted, the site leaves the code, the result is Validate-clean with
// k = 1, and the patch boundary (data-qubit bounding box) is untouched.
func TestBandageInterior(t *testing.T) {
	c := freshCode(t, 5)
	q := interiorQubit(t, c)
	min0, max0 := c.Bounds()
	nData := c.NumData()

	b, err := BandageQubit(c, q)
	if err != nil {
		t.Fatalf("bandage %v: %v", q, err)
	}
	if b.Site != q {
		t.Errorf("bandage site %v, want %v", b.Site, q)
	}
	if len(b.SuperIDs) != 2 {
		t.Fatalf("interior bandage promoted %d super-stabilizers, want 2", len(b.SuperIDs))
	}
	if c.HasData(q) {
		t.Error("bandaged qubit still active")
	}
	if c.NumData() != nData-1 {
		t.Errorf("data count %d, want %d", c.NumData(), nData-1)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("bandaged code invalid: %v", err)
	}
	min1, max1 := c.Bounds()
	if min0 != min1 || max0 != max1 {
		t.Errorf("bandage deformed the patch boundary: %v-%v -> %v-%v", min0, max0, min1, max1)
	}
	supers := 0
	for _, s := range c.Stabs() {
		if s.IsSuper() {
			supers++
			if len(s.MemberIDs) != 2 {
				t.Errorf("super %d has %d members, want 2", s.ID, len(s.MemberIDs))
			}
			if s.Op.ActsOn(q) {
				t.Errorf("super %d acts on the bandaged site", s.ID)
			}
		}
	}
	if supers != 2 {
		t.Errorf("%d super-stabilizers in code, want 2", supers)
	}
	if c.LogicalX().ActsOn(q) || c.LogicalZ().ActsOn(q) {
		t.Error("a logical still acts on the bandaged site")
	}
}

// TestBandageUndoRoundTrip pins the undo path: Undo restores exactly the
// original operator content, qubit sets and logicals.
func TestBandageUndoRoundTrip(t *testing.T) {
	c := freshCode(t, 5)
	orig := codeFingerprint(c)
	q := interiorQubit(t, c)
	b, err := BandageQubit(c, q)
	if err != nil {
		t.Fatalf("bandage: %v", err)
	}
	if err := b.Undo(c); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("undone code invalid: %v", err)
	}
	if got := codeFingerprint(c); got != orig {
		t.Errorf("undo did not restore the code:\n got %s\nwant %s", got, orig)
	}
}

// TestBandageFailureLeavesCodeUntouched pins the transactional contract:
// any rejected script (here: a site whose neighbourhood an earlier bandage
// already merged, and a non-data site) leaves the code byte-identical.
func TestBandageFailureLeavesCodeUntouched(t *testing.T) {
	c := freshCode(t, 5)
	q := interiorQubit(t, c)
	if _, err := BandageQubit(c, q); err != nil {
		t.Fatalf("bandage: %v", err)
	}
	before := codeFingerprint(c)

	if _, err := BandageQubit(c, q); err == nil {
		t.Error("bandaging an inactive site must fail")
	}
	// A neighbour inside the merged checks: S2G must refuse to demote the
	// super-stabilizer.
	var neighbour lattice.Coord
	found := false
	for _, s := range c.Stabs() {
		if s.IsSuper() {
			neighbour, found = s.Op.Support()[0], true
			break
		}
	}
	if !found {
		t.Fatal("no super-stabilizer after bandage")
	}
	if _, err := BandageQubit(c, neighbour); err == nil {
		t.Skip("adjacent bandage unexpectedly valid; no failure to pin")
	}
	if got := codeFingerprint(c); got != before {
		t.Errorf("failed bandage mutated the code:\n got %s\nwant %s", got, before)
	}
}

// TestBandageSweep bandages every data qubit of a patch one at a time
// (each on a fresh code): wherever the construction succeeds the result
// must be Validate-clean (k = 1 enforced there) with the site gone;
// wherever it fails the code must be untouched. On a d >= 5 patch the bulk
// must be bandageable.
func TestBandageSweep(t *testing.T) {
	pristine := freshCode(t, 5)
	ok := 0
	for _, q := range pristine.DataQubits() {
		c := pristine.Clone()
		before := codeFingerprint(c)
		b, err := BandageQubit(c, q)
		if err != nil {
			if got := codeFingerprint(c); got != before {
				t.Errorf("failed bandage %v mutated the code", q)
			}
			continue
		}
		ok++
		if err := c.Validate(); err != nil {
			t.Errorf("bandage %v: invalid code: %v", q, err)
		}
		if c.HasData(q) {
			t.Errorf("bandage %v: site still active", q)
		}
		if err := b.Undo(c); err != nil {
			t.Errorf("bandage %v: undo failed: %v", q, err)
		} else if got := codeFingerprint(c); got != before {
			t.Errorf("bandage %v: undo did not restore the code", q)
		}
	}
	if ok < 9 {
		t.Errorf("only %d of %d sites bandageable; want at least the 3x3 bulk", ok, len(pristine.DataQubits()))
	}
}

// TestBandageDistanceDegrades sanity-checks the physics: a bandaged bulk
// qubit costs at most one unit of each distance and never increases it.
func TestBandageDistanceDegrades(t *testing.T) {
	c := freshCode(t, 5)
	dx0, dz0 := c.DistanceX(), c.DistanceZ()
	q := interiorQubit(t, c)
	if _, err := BandageQubit(c, q); err != nil {
		t.Fatalf("bandage: %v", err)
	}
	dx1, dz1 := c.DistanceX(), c.DistanceZ()
	if dx1 > dx0 || dz1 > dz0 {
		t.Errorf("distance grew: (%d,%d) -> (%d,%d)", dx0, dz0, dx1, dz1)
	}
	if dx1 < dx0-1 || dz1 < dz0-1 {
		t.Errorf("bulk bandage cost more than one distance unit: (%d,%d) -> (%d,%d)", dx0, dz0, dx1, dz1)
	}
}

// TestUnitBandageLifecycle drives the instruction through the deformation
// unit: Bandage applies and persists across Step/Recover rebuilds,
// membership is reported, and Unbandage restores the pristine code.
func TestUnitBandageLifecycle(t *testing.T) {
	mkUnit := func() *Unit {
		return NewUnit(lattice.Coord{}, 5, 5, PolicySurfDeformer, UniformBudget(2))
	}
	u := mkUnit()
	pristine, err := u.Code()
	if err != nil {
		t.Fatalf("code: %v", err)
	}
	q := interiorQubit(t, pristine)

	res, err := u.Bandage([]lattice.Coord{q})
	if err != nil {
		t.Fatalf("bandage: %v", err)
	}
	if res.Code.HasData(q) {
		t.Error("bandaged site still active after Unit.Bandage")
	}
	if got := u.Bandaged(); len(got) != 1 || got[0] != q {
		t.Errorf("membership %v, want [%v]", got, q)
	}

	// The bandage must survive an unrelated removal step and a recovery.
	far := lattice.Coord{Row: 0, Col: 0}
	if far == q {
		t.Fatalf("test geometry: defect site collides with bandage site")
	}
	st, err := u.Step([]lattice.Coord{far})
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if st.Code.HasData(q) {
		t.Error("bandage lost across Step rebuild")
	}
	rc, err := u.Recover([]lattice.Coord{far})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rc.Code.HasData(q) {
		t.Error("bandage lost across Recover rebuild")
	}

	res, err = u.Unbandage([]lattice.Coord{q})
	if err != nil {
		t.Fatalf("unbandage: %v", err)
	}
	if !res.Code.HasData(q) {
		t.Error("site still missing after Unbandage")
	}
	if got := u.Bandaged(); len(got) != 0 {
		t.Errorf("membership %v after unbandage, want empty", got)
	}
	// After the undo the unit must match a control unit with the same
	// Step/Recover history but no bandage.
	ctl := mkUnit()
	if _, err := ctl.Step([]lattice.Coord{far}); err != nil {
		t.Fatalf("control step: %v", err)
	}
	if _, err := ctl.Recover([]lattice.Coord{far}); err != nil {
		t.Fatalf("control recover: %v", err)
	}
	want, err := ctl.Code()
	if err != nil {
		t.Fatalf("control rebuild: %v", err)
	}
	if operatorFingerprint(res.Code) != operatorFingerprint(want) {
		t.Error("unbandaged unit does not match the control unit")
	}
}

// FuzzBandage exercises the build/undo scripts over arbitrary site pairs:
// every outcome must keep the code valid (success) or untouched (failure),
// undoing in reverse order must restore the starting point, and the code's
// memo must match a recomputation after every step.
func FuzzBandage(f *testing.F) {
	f.Add(int16(2), int16(2), int16(2), int16(6))
	f.Add(int16(0), int16(0), int16(8), int16(8))
	f.Add(int16(4), int16(4), int16(4), int16(6))
	f.Add(int16(2), int16(6), int16(6), int16(2))
	f.Add(int16(-2), int16(3), int16(100), int16(100))
	// Data-qubit sites: the seeds above are all check or off-patch
	// coordinates, which only exercise the failure path.
	f.Add(int16(3), int16(3), int16(7), int16(7))
	f.Add(int16(5), int16(5), int16(5), int16(7))
	f.Fuzz(func(t *testing.T, r1, c1, r2, c2 int16) {
		c := freshCode(t, 5)
		orig := codeFingerprint(c)
		var undos []*Bandage
		for _, q := range []lattice.Coord{
			{Row: int(r1), Col: int(c1)},
			{Row: int(r2), Col: int(c2)},
		} {
			before := codeFingerprint(c)
			checkMemo(t, c, "before bandage")
			b, err := BandageQubit(c, q)
			checkMemo(t, c, "after bandage")
			if err != nil {
				if got := codeFingerprint(c); got != before {
					t.Fatalf("failed bandage %v mutated the code", q)
				}
				continue
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("bandage %v: invalid code: %v", q, err)
			}
			undos = append(undos, b)
		}
		for i := len(undos) - 1; i >= 0; i-- {
			if err := undos[i].Undo(c); err != nil {
				t.Fatalf("undo %v: %v", undos[i].Site, err)
			}
			checkMemo(t, c, "after undo")
		}
		if got := codeFingerprint(c); got != orig {
			t.Fatalf("undo stack did not restore the code")
		}
	})
}

// TestBandageUndoOutOfOrder documents the ordering contract: overlapping
// bandages must be undone in reverse application order; an out-of-order
// undo either fails cleanly or still yields a valid code — it never
// corrupts silently.
func TestBandageUndoOutOfOrder(t *testing.T) {
	c := freshCode(t, 7)
	var applied []*Bandage
	for _, q := range c.DataQubits() {
		if len(applied) == 2 {
			break
		}
		if b, err := BandageQubit(c, q); err == nil {
			applied = append(applied, b)
		}
	}
	if len(applied) < 2 {
		t.Skip("fewer than two bandageable sites")
	}
	if err := applied[0].Undo(c); err != nil {
		return // clean refusal is fine
	}
	if err := c.Validate(); err != nil {
		t.Errorf("out-of-order undo corrupted the code: %v", err)
	}
}

// TestSeverityBoundaryTable is the three-tier classification table of
// defect.ClassifyAt as seen through the Mitigation ladder (satellite of
// the bandage tier): the documented boundary semantics, default
// resolution, and misordered-threshold rejection.
func TestSeverityBoundaryTable(t *testing.T) {
	m := Mitigation{}
	cases := []struct {
		rate float64
		want string
	}{
		{0, "reweight"},
		{0.079, "reweight"},
		{0.08, "super"},  // SuperThreshold is inclusive
		{0.099, "super"}, // just under RemoveThreshold
		{0.1, "remove"},  // RemoveThreshold is inclusive
		{0.5, "remove"},
	}
	names := map[int]string{0: "reweight", 1: "super", 2: "remove"}
	for _, tc := range cases {
		if got := names[int(m.Route(tc.rate))]; got != tc.want {
			t.Errorf("Route(%g) = %s, want %s", tc.rate, got, tc.want)
		}
	}
	if err := (Mitigation{}).Validate(); err != nil {
		t.Errorf("default ladder invalid: %v", err)
	}
	if err := (Mitigation{SuperThreshold: 0.2, RemoveThreshold: 0.1}).Validate(); err == nil {
		t.Error("misordered thresholds must be rejected")
	}
	if err := (Mitigation{SuperThreshold: 0.1, RemoveThreshold: 0.1}).Validate(); err == nil {
		t.Error("equal thresholds must be rejected")
	}
	// Defaults resolve before ordering is judged: a custom remove
	// threshold below the default super threshold is a misordered ladder.
	if err := (Mitigation{RemoveThreshold: 0.05}).Validate(); err == nil {
		t.Error("remove threshold below the default super threshold must be rejected")
	}
}
