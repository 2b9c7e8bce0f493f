package search

import (
	"fmt"
	"testing"

	"repro/history"
	"repro/order"
)

func parse(t *testing.T, text string) *history.System {
	t.Helper()
	s, err := history.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func solve(t *testing.T, s *history.System, ops []history.OpID, prec *order.Relation) (history.View, bool) {
	t.Helper()
	v, ok, err := FindView(Problem{Sys: s, Ops: ops, Prec: prec})
	if err != nil {
		t.Fatalf("FindView: %v", err)
	}
	if ok {
		if err := v.Legal(s); err != nil {
			t.Fatalf("solver returned illegal view %v: %v", v.String(s), err)
		}
		if prec != nil && !prec.Respects(v) {
			t.Fatalf("solver returned precedence-violating view %v", v.String(s))
		}
	}
	return v, ok
}

func TestFindViewFigure1UnderPO(t *testing.T) {
	// Figure 1 has no legal serialization of all four operations under
	// full program order (that is exactly "not SC").
	s := parse(t, "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	po := order.Program(s)
	if _, ok := solve(t, s, s.Ops(), po); ok {
		t.Error("Figure 1 serialized under program order; it must not be")
	}
}

func TestFindViewFigure1UnderPPO(t *testing.T) {
	// Under partial program order the reads may bypass the writes.
	s := parse(t, "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	ppo := order.PartialProgram(s)
	v, ok := solve(t, s, s.Ops(), ppo)
	if !ok {
		t.Fatal("Figure 1 not serialized under ppo; TSO requires it")
	}
	if len(v) != 4 {
		t.Errorf("view has %d ops, want 4", len(v))
	}
}

func TestFindViewRespectsPrecedence(t *testing.T) {
	s := parse(t, "w(x)1 w(x)2")
	prec := order.New(s.NumOps())
	prec.Add(1, 0) // force reversed order
	v, ok := solve(t, s, s.Ops(), prec)
	if !ok {
		t.Fatal("no view found")
	}
	if v[0] != 1 || v[1] != 0 {
		t.Errorf("view = %v, want reversed writes", v.String(s))
	}
}

func TestFindViewLegalityForcesOrder(t *testing.T) {
	// The read of 2 must come after w(x)2 and the read of 1 cannot
	// follow it: only order w(x)1 r(x)1 w(x)2 r(x)2 works (reads are
	// unordered with respect to writes here by giving no precedence).
	s := parse(t, "p0: w(x)1 w(x)2\np1: r(x)1 r(x)2")
	po := order.Program(s)
	v, ok := solve(t, s, s.Ops(), po)
	if !ok {
		t.Fatal("no view found")
	}
	want := "w0(x)1 r1(x)1 w0(x)2 r1(x)2"
	if v.String(s) != want {
		t.Errorf("view = %q, want %q", v.String(s), want)
	}
}

func TestFindViewInitialValueReads(t *testing.T) {
	// All reads of 0 must precede the write.
	s := parse(t, "p0: w(x)5\np1: r(x)0 r(x)0 r(x)5")
	po := order.Program(s)
	v, ok := solve(t, s, s.Ops(), po)
	if !ok {
		t.Fatal("no view found")
	}
	if v.PositionOf(0) > v.PositionOf(1) == false {
		// w(x)5 is op 0; reads of 0 are ops 1, 2.
		t.Errorf("unexpected order %v", v.String(s))
	}
}

func TestFindViewUnsatisfiableRead(t *testing.T) {
	// r(x)7 can never be satisfied.
	s := parse(t, "p0: w(x)1\np1: r(x)7")
	if _, ok := solve(t, s, s.Ops(), nil); ok {
		t.Error("satisfied a read of a never-written value")
	}
}

func TestFindViewCyclicPrecedence(t *testing.T) {
	s := parse(t, "w(x)1 w(x)2")
	prec := order.New(s.NumOps())
	prec.Add(0, 1)
	prec.Add(1, 0)
	if _, ok := solve(t, s, s.Ops(), prec); ok {
		t.Error("found view under cyclic precedence")
	}
}

func TestFindViewSubsetOfOps(t *testing.T) {
	// Solve over a view-style subset: p0's ops plus p1's writes only.
	s := parse(t, "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	ppo := order.PartialProgram(s)
	ops := s.ViewOps(0)
	v, ok := solve(t, s, ops, ppo)
	if !ok {
		t.Fatal("no view for p0")
	}
	if len(v) != 3 {
		t.Errorf("view = %v, want 3 ops", v.String(s))
	}
	if v.Contains(3) {
		t.Error("view contains p1's read")
	}
}

func TestFindViewDuplicateOpsRejected(t *testing.T) {
	s := parse(t, "w(x)1")
	_, _, err := FindView(Problem{Sys: s, Ops: []history.OpID{0, 0}})
	if err == nil {
		t.Error("duplicate ops accepted")
	}
}

func TestFindViewTooManyOps(t *testing.T) {
	b := history.NewBuilder(1)
	for i := 0; i < 65; i++ {
		b.Write(0, "x", history.Value(i+1))
	}
	s := b.System()
	_, _, err := FindView(Problem{Sys: s, Ops: s.Ops()})
	if err == nil {
		t.Error("65-op problem accepted")
	}
}

func TestFindViewEmptyProblem(t *testing.T) {
	s := parse(t, "w(x)1")
	v, ok, err := FindView(Problem{Sys: s, Ops: nil})
	if err != nil || !ok || len(v) != 0 {
		t.Errorf("empty problem: v=%v ok=%v err=%v", v, ok, err)
	}
}

func TestUnmemoizedAgrees(t *testing.T) {
	cases := []string{
		"p0: w(x)1 r(y)0\np1: w(y)1 r(x)0",
		"p0: w(x)1 w(x)2\np1: r(x)2 r(x)1",
		"p0: w(a)1 w(b)2 r(c)0\np1: w(c)3 r(a)1 r(b)0",
	}
	for _, text := range cases {
		s := parse(t, text)
		po := order.Program(s)
		_, ok1, err1 := FindView(Problem{Sys: s, Ops: s.Ops(), Prec: po})
		_, ok2, err2 := findView(Problem{Sys: s, Ops: s.Ops(), Prec: po}, false)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v, %v", err1, err2)
		}
		if ok1 != ok2 {
			t.Errorf("%q: memoized=%v unmemoized=%v", text, ok1, ok2)
		}
	}
}

func TestMemoizationPrunesSharedDeadStates(t *testing.T) {
	// A history engineered so naive search revisits dead states: many
	// independent writes with one unsatisfiable read at the end.
	b := history.NewBuilder(2)
	for i := 0; i < 8; i++ {
		b.Write(0, history.Loc("l"+string(rune('a'+i))), 1)
	}
	b.Read(1, "z", 9) // never satisfiable
	s := b.System()
	_, ok, err := FindView(Problem{Sys: s, Ops: s.Ops()})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unsatisfiable problem solved")
	}
}

// memoProblem is an instance on which memoization matters: two processors
// with interleavable independent writes and a final unsatisfiable read.
func memoProblem(ops int) (*history.System, *order.Relation) {
	bld := history.NewBuilder(2)
	for i := 0; i < ops; i++ {
		p := history.Proc(i % 2)
		bld.Write(p, history.Loc(fmt.Sprintf("l%d", i)), 1)
	}
	bld.Read(0, "zz", 9) // never satisfiable
	s := bld.System()
	return s, order.Program(s)
}

// BenchmarkSolverMemoization is the ablation for the solver's failed-state
// cache: identical problems with and without memoization.
func BenchmarkSolverMemoization(b *testing.B) {
	// Two interleavable 9-write chains: the memoized search visits one
	// state per (i, j) prefix pair (≈100 states); the unmemoized search
	// walks every interleaving (C(18,9) ≈ 4.9e4 paths).
	s, po := memoProblem(18)
	prob := Problem{Sys: s, Ops: s.Ops(), Prec: po}
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, _ := FindView(prob); ok {
				b.Fatal("unsatisfiable problem solved")
			}
		}
	})
	b.Run("unmemoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, _ := findView(prob, false); ok {
				b.Fatal("unsatisfiable problem solved")
			}
		}
	})
}
