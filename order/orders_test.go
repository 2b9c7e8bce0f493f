package order

import (
	"testing"

	"repro/history"
)

func parse(t *testing.T, text string) *history.System {
	t.Helper()
	s, err := history.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

// op returns the ID of processor p's i-th operation.
func op(s *history.System, p history.Proc, i int) history.OpID { return s.ProcOps(p)[i] }

func TestProgramOrder(t *testing.T) {
	s := parse(t, "p0: w(x)1 r(y)0 w(z)1\np1: r(x)0")
	po := Program(s)
	// Total within p0.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if !po.Has(op(s, 0, i), op(s, 0, j)) {
				t.Errorf("po missing (%d,%d) within p0", i, j)
			}
			if po.Has(op(s, 0, j), op(s, 0, i)) {
				t.Errorf("po inverted (%d,%d)", j, i)
			}
		}
	}
	// No cross-processor pairs.
	if po.Has(op(s, 0, 0), op(s, 1, 0)) || po.Has(op(s, 1, 0), op(s, 0, 0)) {
		t.Error("po relates operations of different processors")
	}
}

func TestPartialProgramOrderOmitsWriteRead(t *testing.T) {
	// w(x)1 then r(y)0: different locations, write before read — the one
	// bypassable pair.
	s := parse(t, "w(x)1 r(y)0")
	ppo := PartialProgram(s)
	if ppo.Has(0, 1) {
		t.Error("ppo orders write before later read of a different location")
	}

	// All four retained cases.
	cases := []struct {
		text string
		why  string
	}{
		{"w(x)1 r(x)1", "same location"},
		{"r(x)0 r(y)0", "both reads"},
		{"w(x)1 w(y)1", "both writes"},
		{"r(x)0 w(y)1", "read before write"},
	}
	for _, c := range cases {
		s := parse(t, c.text)
		if !PartialProgram(s).Has(0, 1) {
			t.Errorf("ppo missing pair for %s (%s)", c.text, c.why)
		}
	}
}

func TestPartialProgramOrderTransitive(t *testing.T) {
	// w(x)1 → r(x)1 (same loc), r(x)1 → r(y)0 (both reads), so the
	// transitive rule orders w(x)1 before r(y)0 even though directly it
	// is a bypassable write→read pair.
	s := parse(t, "w(x)1 r(x)1 r(y)0")
	ppo := PartialProgram(s)
	if !ppo.Has(0, 2) {
		t.Error("ppo transitivity lost w(x)1 < r(y)0 through r(x)1")
	}
}

func TestWritesBefore(t *testing.T) {
	s := parse(t, "p0: w(x)1\np1: r(x)1 r(y)0")
	wb, err := WritesBefore(s)
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Has(op(s, 0, 0), op(s, 1, 0)) {
		t.Error("wb missing writer→reader pair")
	}
	// Initial-value read contributes nothing.
	if wb.Len() != 1 {
		t.Errorf("wb has %d pairs, want 1: %v", wb.Len(), wb.Pairs())
	}
}

func TestWritesBeforeAmbiguous(t *testing.T) {
	s := parse(t, "p0: w(x)1 w(x)1\np1: r(x)1")
	if _, err := WritesBefore(s); err == nil {
		t.Error("ambiguous reads-from accepted")
	}
}

func TestCausalOrderFigure4Chain(t *testing.T) {
	// Paper Figure 4. The causal chain discussed in Section 3.5:
	// w_p(y)1 →po… and r’s read of z forces r to later read y as 1:
	// w_p(x)1 →po w_p(y)1 →wb r_q(y)1 →po w_q(z)1 →wb r_r(z)1 →po r_r(y)1.
	s := parse(t, `
p0: w(x)1 w(y)1
p1: r(y)1 w(z)1 r(x)2
p2: w(x)2 r(x)1 r(z)1 r(y)1`)
	co, err := Causal(s)
	if err != nil {
		t.Fatal(err)
	}
	wy := op(s, 0, 1) // w_p(y)1
	ry := op(s, 2, 3) // r_r(y)1
	if !co.Has(wy, ry) {
		t.Error("causal chain w(y)1 → … → r_r(y)1 missing")
	}
	wx1 := op(s, 0, 0) // w_p(x)1
	rz := op(s, 2, 2)  // r_r(z)1
	if !co.Has(wx1, rz) {
		t.Error("causal chain w(x)1 → … → r_r(z)1 missing")
	}
	// No causal path from p2's w(x)2 back to p0's w(x)1.
	if co.Has(op(s, 2, 0), wx1) {
		t.Error("spurious causal pair w(x)2 → w(x)1")
	}
}

func TestNewCoherenceValidates(t *testing.T) {
	s := parse(t, "p0: w(x)1 w(x)2\np1: r(x)1")
	ws := s.WritesTo("x")
	if _, err := NewCoherence(s, map[history.Loc][]history.OpID{"x": ws}); err != nil {
		t.Errorf("valid coherence rejected: %v", err)
	}
	// Wrong length.
	if _, err := NewCoherence(s, map[history.Loc][]history.OpID{"x": ws[:1]}); err == nil {
		t.Error("short coherence accepted")
	}
	// Repeated write.
	if _, err := NewCoherence(s, map[history.Loc][]history.OpID{"x": {ws[0], ws[0]}}); err == nil {
		t.Error("repeated write accepted")
	}
	// A read in the order.
	if _, err := NewCoherence(s, map[history.Loc][]history.OpID{"x": {ws[0], op(s, 1, 0)}}); err == nil {
		t.Error("read in coherence order accepted")
	}
}

func TestCoherenceBeforeAndRelation(t *testing.T) {
	s := parse(t, "p0: w(x)1 w(x)2 w(y)3")
	coh, err := NewCoherence(s, map[history.Loc][]history.OpID{
		"x": {op(s, 0, 1), op(s, 0, 0)}, // reversed on purpose
		"y": {op(s, 0, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !coh.Before(op(s, 0, 1), op(s, 0, 0)) {
		t.Error("Before should follow the supplied order")
	}
	if coh.Before(op(s, 0, 0), op(s, 0, 2)) {
		t.Error("Before must not relate writes of different locations")
	}
	rel := coh.Relation(s)
	if !rel.Has(op(s, 0, 1), op(s, 0, 0)) || rel.Len() != 1 {
		t.Errorf("Relation pairs = %v", rel.Pairs())
	}
}

func TestRemoteWritesBefore(t *testing.T) {
	// p0: w(x)1 w(y)2 — both writes, so w(x)1 ppo w(y)2.
	// p1 reads y=2, so w(x)1 →rwb r(y)2.
	s := parse(t, "p0: w(x)1 w(y)2\np1: r(y)2")
	ppo := PartialProgram(s)
	rwb, err := RemoteWritesBefore(s, ppo)
	if err != nil {
		t.Fatal(err)
	}
	if !rwb.Has(op(s, 0, 0), op(s, 1, 0)) {
		t.Error("rwb missing w(x)1 → r(y)2")
	}
	// The direct writes-before pair w(y)2 → r(y)2 is NOT part of rwb
	// (ppo is irreflexive, so o1 = o' contributes nothing).
	if rwb.Has(op(s, 0, 1), op(s, 1, 0)) {
		t.Error("rwb should not include the direct writes-before pair")
	}
}

func TestRemoteReadsBefore(t *testing.T) {
	// p0 reads x=0 (initial). p1 writes x=1 then y=2 (ppo: both writes).
	// The initial value precedes w(x)1 in coherence, so r(x)0 →rrb w(y)2.
	s := parse(t, "p0: r(x)0\np1: w(x)1 w(y)2")
	ppo := PartialProgram(s)
	coh, err := NewCoherence(s, map[history.Loc][]history.OpID{
		"x": {op(s, 1, 0)},
		"y": {op(s, 1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rrb, err := RemoteReadsBefore(s, ppo, coh)
	if err != nil {
		t.Fatal(err)
	}
	if !rrb.Has(op(s, 0, 0), op(s, 1, 1)) {
		t.Error("rrb missing r(x)0 → w(y)2")
	}
	// r(x)0 →rrb w(x)1 as well: o' = w(x)1 and o2 = w(x)1 requires
	// o' ppo o2 which is irreflexive, so NOT related directly …
	if rrb.Has(op(s, 0, 0), op(s, 1, 0)) {
		t.Error("rrb should not relate read to the very write o'")
	}
}

func TestRemoteReadsBeforeObservedWrite(t *testing.T) {
	// p0 reads x=1 (from p1's first write). p1: w(x)1 w(x)2 w(y)3.
	// With coherence x: w(x)1 < w(x)2, the read of the older value is
	// rrb-before any write that ppo-follows w(x)2, i.e. w(y)3.
	s := parse(t, "p0: r(x)1\np1: w(x)1 w(x)2 w(y)3")
	ppo := PartialProgram(s)
	coh, err := NewCoherence(s, map[history.Loc][]history.OpID{
		"x": {op(s, 1, 0), op(s, 1, 1)},
		"y": {op(s, 1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rrb, err := RemoteReadsBefore(s, ppo, coh)
	if err != nil {
		t.Fatal(err)
	}
	if !rrb.Has(op(s, 0, 0), op(s, 1, 2)) {
		t.Error("rrb missing r(x)1 → w(y)3 through newer w(x)2")
	}
}

func TestSemiCausalCombines(t *testing.T) {
	// sem must contain ppo, rwb and rrb pairs and their compositions.
	s := parse(t, "p0: r(x)0 w(z)5\np1: w(x)1 w(y)2\np2: r(y)2")
	coh, err := NewCoherence(s, map[history.Loc][]history.OpID{
		"x": {op(s, 1, 0)},
		"y": {op(s, 1, 1)},
		"z": {op(s, 0, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sem, err := SemiCausal(s, coh)
	if err != nil {
		t.Fatal(err)
	}
	if !sem.Has(op(s, 0, 0), op(s, 0, 1)) {
		t.Error("sem missing ppo pair r(x)0 < w(z)5")
	}
	if !sem.Has(op(s, 1, 0), op(s, 2, 0)) {
		t.Error("sem missing rwb pair w(x)1 < r(y)2")
	}
	if !sem.Has(op(s, 0, 0), op(s, 1, 1)) {
		t.Error("sem missing rrb pair r(x)0 < w(y)2")
	}
}

func TestRestrict(t *testing.T) {
	keep := []history.OpID{0, 2, 3}
	r := New(4)
	r.Add(0, 1)
	r.Add(1, 2)
	r.TransitiveClosure() // adds (0,2)
	got := r.Clone().RestrictTo(keep)
	if !got.Has(0, 2) {
		t.Error("restriction lost closed pair (0,2)")
	}
	if got.Has(0, 1) || got.Has(1, 2) {
		t.Error("restriction kept pairs touching excluded op")
	}
	open := New(4)
	open.Add(0, 1)
	open.Add(1, 2)
	if open.RestrictTo(keep).TransitiveClosure().Has(0, 2) {
		t.Error("restricting before closing kept the chain through the excluded op")
	}
}
