package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/history"
	"repro/order"
)

// bruteForce is the oracle: try every permutation of ops and report
// whether any is a legal view respecting prec. Exponential — only for
// small problems in tests.
func bruteForce(s *history.System, ops []history.OpID, prec *order.Relation) bool {
	n := len(ops)
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == n {
			v := make(history.View, n)
			for i, k := range perm {
				v[i] = ops[k]
			}
			if prec != nil && !prec.Respects(v) {
				return false
			}
			return v.IsLegal(s)
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			perm[d] = i
			if rec(d + 1) {
				return true
			}
			used[i] = false
		}
		return false
	}
	return rec(0)
}

// memoBruteForce decides a view problem by plain recursion over
// prefixes, extending a prefix only while it is legal and respects prec,
// and remembering dead states by the set placed and the value each
// location last received. It keeps the wider problems below cheap and
// shares no code with the solver.
func memoBruteForce(s *history.System, ops []history.OpID, prec *order.Relation) bool {
	n := len(ops)
	last := map[history.Loc]history.Value{}
	dead := map[string]bool{}
	var rec func(used uint64) bool
	rec = func(used uint64) bool {
		if used == 1<<uint(n)-1 {
			return true
		}
		key := fmt.Sprint(used, last)
		if dead[key] {
			return false
		}
		for i := 0; i < n; i++ {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			blocked := false
			for j := 0; j < n && prec != nil; j++ {
				if used&(1<<uint(j)) == 0 && j != i && prec.Has(ops[j], ops[i]) {
					blocked = true
					break
				}
			}
			o := s.Op(ops[i])
			if blocked || (o.Kind == history.Read && last[o.Loc] != o.Value) {
				continue
			}
			prev, had := last[o.Loc]
			if o.Kind == history.Write {
				last[o.Loc] = o.Value
			}
			ok := rec(used | 1<<uint(i))
			if o.Kind == history.Write {
				if had {
					last[o.Loc] = prev
				} else {
					delete(last, o.Loc)
				}
			}
			if ok {
				return true
			}
		}
		dead[key] = true
		return false
	}
	return rec(0)
}

// randomPrec is a random acyclic precedence over s's operations: pairs
// (a, b) with a before b under a random permutation, each kept with
// probability 1/keep.
func randomPrec(r *rand.Rand, s *history.System, keep int) *order.Relation {
	perm := r.Perm(s.NumOps())
	rank := make([]int, s.NumOps())
	for i, k := range perm {
		rank[k] = i
	}
	prec := order.New(s.NumOps())
	for a := 0; a < s.NumOps(); a++ {
		for b := 0; b < s.NumOps(); b++ {
			if rank[a] < rank[b] && r.Intn(keep) == 0 {
				prec.Add(history.OpID(a), history.OpID(b))
			}
		}
	}
	return prec
}

// genWideProblem is a view problem over more than 8 locations, which the
// solver memoizes under string keys rather than packed words. Processor 0
// first reads l0..l7, so those take the first eight location slots; the
// 4–8 operations that follow use l8 and l9, each written up to three
// times, so dead states differ in the slots past the eighth.
type genWideProblem struct {
	Sys  *history.System
	Prec *order.Relation
}

func (genWideProblem) Generate(r *rand.Rand, _ int) reflect.Value {
	procs := 1 + r.Intn(3)
	b := history.NewBuilder(procs)
	for l := 0; l < 8; l++ {
		b.Read(0, history.Loc(fmt.Sprintf("l%d", l)), history.Initial)
	}
	written := map[history.Loc][]history.Value{}
	next := history.Value(0)
	hot := 4 + r.Intn(5)
	for i := 0; i < hot; i++ {
		p := history.Proc(r.Intn(procs))
		loc := history.Loc(fmt.Sprintf("l%d", 8+r.Intn(2)))
		switch {
		case r.Intn(2) == 0 && len(written[loc]) < 3:
			next++
			b.Write(p, loc, next)
			written[loc] = append(written[loc], next)
		case len(written[loc]) > 0 && r.Intn(3) > 0:
			b.Read(p, loc, written[loc][r.Intn(len(written[loc]))])
		default:
			b.Read(p, loc, history.Initial)
		}
	}
	s := b.System()
	return reflect.ValueOf(genWideProblem{Sys: s, Prec: randomPrec(r, s, 6)})
}

// genBigProblem is a view problem inside a system of more than 64
// operations, so the precedence relation spans several words per row:
// 65–90 operations, of which the problem takes 6–14.
type genBigProblem struct {
	Sys  *history.System
	Ops  []history.OpID
	Prec *order.Relation
}

func (genBigProblem) Generate(r *rand.Rand, _ int) reflect.Value {
	procs := 2 + r.Intn(3)
	b := history.NewBuilder(procs)
	var written []history.Value
	next := history.Value(0)
	total := 65 + r.Intn(26)
	for i := 0; i < total; i++ {
		p := history.Proc(r.Intn(procs))
		loc := history.Loc(fmt.Sprintf("l%d", r.Intn(3)))
		if r.Intn(2) == 0 {
			next++
			b.Write(p, loc, next)
			written = append(written, next)
		} else if len(written) > 0 && r.Intn(2) == 0 {
			b.Read(p, loc, written[r.Intn(len(written))])
		} else {
			b.Read(p, loc, history.Initial)
		}
	}
	s := b.System()
	pick := r.Perm(s.NumOps())[:6+r.Intn(9)]
	ops := make([]history.OpID, len(pick))
	for i, k := range pick {
		ops[i] = history.OpID(k)
	}
	return reflect.ValueOf(genBigProblem{Sys: s, Ops: ops, Prec: randomPrec(r, s, 8)})
}

// genProblem wraps a random small view-existence problem for testing/quick.
type genProblem struct {
	Sys  *history.System
	Prec *order.Relation
}

// Generate implements quick.Generator: a random ≤7-operation history with
// a random acyclic precedence relation (a random subset of a random total
// order, so acyclicity is guaranteed).
func (genProblem) Generate(r *rand.Rand, _ int) reflect.Value {
	procs := 1 + r.Intn(3)
	ops := 3 + r.Intn(5)
	b := history.NewBuilder(procs)
	var next history.Value
	var written []history.Value
	for i := 0; i < ops; i++ {
		p := history.Proc(r.Intn(procs))
		loc := history.Loc(fmt.Sprintf("l%d", r.Intn(2)))
		if r.Intn(2) == 0 {
			next++
			b.Write(p, loc, next)
			written = append(written, next)
		} else if len(written) > 0 && r.Intn(2) == 0 {
			b.Read(p, loc, written[r.Intn(len(written))])
		} else {
			b.Read(p, loc, history.Initial)
		}
	}
	s := b.System()
	// Random acyclic precedence: pairs (i, j) with i < j under a random
	// permutation of the IDs.
	perm := r.Perm(s.NumOps())
	rank := make([]int, s.NumOps())
	for i, k := range perm {
		rank[k] = i
	}
	prec := order.New(s.NumOps())
	for a := 0; a < s.NumOps(); a++ {
		for bID := 0; bID < s.NumOps(); bID++ {
			if rank[a] < rank[bID] && r.Intn(4) == 0 {
				prec.Add(history.OpID(a), history.OpID(bID))
			}
		}
	}
	return reflect.ValueOf(genProblem{Sys: s, Prec: prec})
}

// TestQuickSolverMatchesBruteForce is the solver's oracle test: on random
// small problems, FindView succeeds exactly when exhaustive permutation
// search finds a legal, precedence-respecting sequence — and when it
// succeeds, its answer is itself legal and respectful.
func TestQuickSolverMatchesBruteForce(t *testing.T) {
	prop := func(g genProblem) bool {
		ops := g.Sys.Ops()
		v, ok, err := FindView(Problem{Sys: g.Sys, Ops: ops, Prec: g.Prec})
		if err != nil {
			return false
		}
		want := bruteForce(g.Sys, ops, g.Prec)
		if ok != want {
			t.Logf("solver=%v oracle=%v on:\n%s", ok, want, g.Sys)
			return false
		}
		if ok {
			if err := v.Legal(g.Sys); err != nil {
				return false
			}
			if !g.Prec.Respects(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Views of more than 8 locations (string memo keys) and problems in
	// systems of more than 64 operations (multi-word relation rows).
	check := func(name string, s *history.System, ops []history.OpID, prec *order.Relation) bool {
		v, ok, err := FindView(Problem{Sys: s, Ops: ops, Prec: prec})
		if err != nil {
			t.Logf("%s: %v", name, err)
			return false
		}
		if want := memoBruteForce(s, ops, prec); ok != want {
			t.Logf("%s: solver=%v oracle=%v on ops %v of:\n%s", name, ok, want, ops, s)
			return false
		}
		return !ok || (v.Legal(s) == nil && prec.Respects(v) && v.SameSet(history.View(ops)))
	}
	wide := func(g genWideProblem) bool { return check("wide", g.Sys, g.Sys.Ops(), g.Prec) }
	if err := quick.Check(wide, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	big := func(g genBigProblem) bool { return check("big", g.Sys, g.Ops, g.Prec) }
	if err := quick.Check(big, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnumerateViewsComplete: EnumerateViews yields exactly the legal
// precedence-respecting permutations (count-checked against brute force).
func TestQuickEnumerateViewsComplete(t *testing.T) {
	countBrute := func(s *history.System, ops []history.OpID, prec *order.Relation) int {
		n := len(ops)
		perm := make([]int, n)
		used := make([]bool, n)
		count := 0
		var rec func(d int)
		rec = func(d int) {
			if d == n {
				v := make(history.View, n)
				for i, k := range perm {
					v[i] = ops[k]
				}
				if prec.Respects(v) && v.IsLegal(s) {
					count++
				}
				return
			}
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				used[i] = true
				perm[d] = i
				rec(d + 1)
				used[i] = false
			}
		}
		rec(0)
		return count
	}
	prop := func(g genProblem) bool {
		if g.Sys.NumOps() > 6 {
			return true // keep the factorial oracle cheap
		}
		got := 0
		seen := map[string]bool{}
		err := EnumerateViews(Problem{Sys: g.Sys, Ops: g.Sys.Ops(), Prec: g.Prec}, func(v history.View) bool {
			got++
			key := fmt.Sprint([]history.OpID(v)) // IDs, not rendering: distinct ops may look identical
			if seen[key] {
				t.Logf("duplicate enumeration: %s", key)
				return false
			}
			seen[key] = true
			if !v.IsLegal(g.Sys) || !g.Prec.Respects(v) {
				return false
			}
			return true
		})
		if err != nil {
			return false
		}
		want := countBrute(g.Sys, g.Sys.Ops(), g.Prec)
		if got != want {
			t.Logf("enumerated %d, oracle %d on:\n%s", got, want, g.Sys)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
