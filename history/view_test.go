package history

import (
	"fmt"
	"testing"
)

// projectLoc returns the subsequence of operations on the given location:
// the paper's S|x, used when reasoning about coherence.
func (v View) projectLoc(s *System, loc Loc) View {
	var out View
	for _, id := range v {
		if s.Op(id).Loc == loc {
			out = append(out, id)
		}
	}
	return out
}

// projectWritesLoc returns the subsequence of writes to the given
// location: the paper's S|w,x, which coherence requires to be identical
// across all processors' views.
func (v View) projectWritesLoc(s *System, loc Loc) View {
	var out View
	for _, id := range v {
		if o := s.Op(id); o.Kind == Write && o.Loc == loc {
			out = append(out, id)
		}
	}
	return out
}

// projectLabeled returns the subsequence of labeled operations: the
// paper's S|ℓ, whose family across processors must satisfy SC (for RC_sc)
// or PC (for RC_pc).
func (v View) projectLabeled(s *System) View {
	var out View
	for _, id := range v {
		if s.Op(id).Labeled {
			out = append(out, id)
		}
	}
	return out
}

// checkViewOf checks the structural requirements every model in the paper
// places on a candidate view for processor p with δ_p = w: it holds
// exactly p's operations and all writes of other processors, and it is
// legal. Ordering requirements differ per model and are checked by
// package model.
func checkViewOf(s *System, p Proc, v View) error {
	want := s.ViewOps(p)
	if !v.SameSet(View(want)) {
		return fmt.Errorf("history: view of p%d has wrong operation set: got %d ops, want own ops plus others' writes (%d ops)",
			p, len(v), len(want))
	}
	return v.Legal(s)
}

// fig1 is the paper's Figure 1 (the classic store-buffering history).
const fig1 = "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0"

func ids(xs ...int) View {
	v := make(View, len(xs))
	for i, x := range xs {
		v[i] = OpID(x)
	}
	return v
}

func TestViewLegal(t *testing.T) {
	s := mustParse(t, fig1)
	// Paper's TSO views for Figure 1:
	//   S_{p+w}: r_p(y)0 w_p(x)1 w_q(y)1
	legal := ids(1, 0, 2)
	if err := legal.Legal(s); err != nil {
		t.Errorf("paper's view rejected: %v", err)
	}
	// Putting w(y)1 before r(y)0 is illegal: the read must see 1.
	illegal := ids(2, 1, 0)
	if illegal.Legal(s) == nil {
		t.Error("illegal view accepted")
	}
}

func TestViewLegalInitialValue(t *testing.T) {
	s := mustParse(t, "r(x)0 w(x)1 r(x)1")
	if err := ids(0, 1, 2).Legal(s); err != nil {
		t.Errorf("reads of initial then written value rejected: %v", err)
	}
	if ids(1, 0, 2).Legal(s) == nil {
		t.Error("read of 0 after write of 1 accepted")
	}
}

func TestViewLegalMostRecentWrite(t *testing.T) {
	s := mustParse(t, "w(x)1 w(x)2 r(x)1")
	// Read of 1 after both writes is illegal (2 is most recent) ...
	if ids(0, 1, 2).Legal(s) == nil {
		t.Error("stale read accepted")
	}
	// ... but legal if the read is placed between the writes.
	if err := ids(0, 2, 1).Legal(s); err != nil {
		t.Errorf("read between writes rejected: %v", err)
	}
}

func TestProjections(t *testing.T) {
	s := mustParse(t, "p0: w(x)1 r(y)5 W(s)1\np1: w(y)5 R(s)1")
	all := View(s.Ops())
	w := all.ProjectWrites(s)
	if len(w) != 3 {
		t.Errorf("ProjectWrites = %v", w.String(s))
	}
	wy := all.projectWritesLoc(s, "y")
	if len(wy) != 1 || s.Op(wy[0]).Loc != "y" {
		t.Errorf("ProjectWritesLoc(y) = %v", wy.String(s))
	}
	y := all.projectLoc(s, "y")
	if len(y) != 2 {
		t.Errorf("ProjectLoc(y) = %v", y.String(s))
	}
	lab := all.projectLabeled(s)
	if len(lab) != 2 {
		t.Errorf("ProjectLabeled = %v", lab.String(s))
	}
	p0 := all.ProjectProc(s, 0)
	if len(p0) != 3 {
		t.Errorf("ProjectProc(0) = %v", p0.String(s))
	}
}

func TestViewEqualSameSet(t *testing.T) {
	a := ids(0, 1, 2)
	b := ids(2, 1, 0)
	if !a.Equal(ids(0, 1, 2)) || a.Equal(b) {
		t.Error("Equal misbehaves")
	}
	if !a.SameSet(b) {
		t.Error("SameSet should ignore order")
	}
	if a.SameSet(ids(0, 1)) || a.SameSet(ids(0, 1, 1)) {
		t.Error("SameSet should compare multisets")
	}
}

func TestViewContainsPosition(t *testing.T) {
	v := ids(4, 2, 7)
	if !v.Contains(2) || v.Contains(3) {
		t.Error("Contains misbehaves")
	}
	if v.PositionOf(7) != 2 || v.PositionOf(9) != -1 {
		t.Error("PositionOf misbehaves")
	}
}

func TestCheckViewOf(t *testing.T) {
	s := mustParse(t, fig1)
	// For p0, the view must contain p0's two ops plus p1's write.
	good := ids(1, 0, 2) // r0(y)0 w0(x)1 w1(y)1
	if err := checkViewOf(s, 0, good); err != nil {
		t.Errorf("valid view rejected: %v", err)
	}
	// Wrong set: includes p1's read.
	if checkViewOf(s, 0, ids(0, 1, 2, 3)) == nil {
		t.Error("view containing another processor's read accepted")
	}
	// Right set, illegal order.
	if checkViewOf(s, 0, ids(2, 1, 0)) == nil {
		t.Error("illegal view accepted")
	}
}

func TestViewString(t *testing.T) {
	s := mustParse(t, fig1)
	got := ids(1, 0, 2).String(s)
	want := "r0(y)0 w0(x)1 w1(y)1"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
