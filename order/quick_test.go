package order

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/history"
)

// genRel wraps a random relation for testing/quick.
type genRel struct{ R *Relation }

// Generate implements quick.Generator.
func (genRel) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(12)
	rel := New(n)
	pairs := r.Intn(n * 2)
	for i := 0; i < pairs; i++ {
		rel.Add(history.OpID(r.Intn(n)), history.OpID(r.Intn(n)))
	}
	return reflect.ValueOf(genRel{rel})
}

// genSys wraps a random well-formed history.
type genSys struct{ Sys *history.System }

// Generate implements quick.Generator.
func (genSys) Generate(r *rand.Rand, _ int) reflect.Value {
	procs := 1 + r.Intn(3)
	ops := 3 + r.Intn(7)
	b := history.NewBuilder(procs)
	var next history.Value
	var written []history.Value
	for i := 0; i < ops; i++ {
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
	return reflect.ValueOf(genSys{b.System()})
}

func TestQuickClosureIdempotent(t *testing.T) {
	prop := func(g genRel) bool {
		once := g.R.Clone().TransitiveClosure()
		twice := once.Clone().TransitiveClosure()
		return reflect.DeepEqual(once.Pairs(), twice.Pairs())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickClosureContainsOriginal(t *testing.T) {
	prop := func(g genRel) bool {
		closed := g.R.Clone().TransitiveClosure()
		for _, p := range g.R.Pairs() {
			if !closed.Has(p[0], p[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickClosureIsTransitive(t *testing.T) {
	prop := func(g genRel) bool {
		c := g.R.Clone().TransitiveClosure()
		n := c.Size()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if !c.Has(history.OpID(a), history.OpID(b)) {
					continue
				}
				for d := 0; d < n; d++ {
					if c.Has(history.OpID(b), history.OpID(d)) && !c.Has(history.OpID(a), history.OpID(d)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionIsLeastUpperBound(t *testing.T) {
	prop := func(a, b genRel) bool {
		if a.R.Size() != b.R.Size() {
			return true // Union requires equal sizes
		}
		u := a.R.Clone()
		u.Union(b.R)
		for _, p := range a.R.Pairs() {
			if !u.Has(p[0], p[1]) {
				return false
			}
		}
		for _, p := range b.R.Pairs() {
			if !u.Has(p[0], p[1]) {
				return false
			}
		}
		return u.Len() <= a.R.Len()+b.R.Len()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickOrderHierarchy checks the inclusions the paper's definitions
// imply, on random histories: ppo ⊆ po, wb ⊆ co, po ⊆ co, and sem ⊇ ppo
// (for the program-order coherence).
func TestQuickOrderHierarchy(t *testing.T) {
	prop := func(g genSys) bool {
		s := g.Sys
		po := Program(s)
		ppo := PartialProgram(s)
		for _, p := range ppo.Pairs() {
			if !po.Has(p[0], p[1]) {
				return false // ppo must be a suborder of po
			}
		}
		wb, err := WritesBefore(s)
		if err != nil {
			return true // ambiguous reads-from cannot occur with our generator
		}
		co, err := Causal(s)
		if err != nil {
			return false
		}
		for _, p := range wb.Pairs() {
			if !co.Has(p[0], p[1]) {
				return false
			}
		}
		for _, p := range po.Pairs() {
			if !co.Has(p[0], p[1]) {
				return false
			}
		}
		// sem ⊇ ppo for any coherence; use program-order coherence.
		m := make(map[history.Loc][]history.OpID)
		for _, loc := range s.Locs() {
			m[loc] = s.WritesTo(loc)
		}
		coh, err := NewCoherence(s, m)
		if err != nil {
			return false
		}
		sem, err := SemiCausal(s, coh)
		if err != nil {
			return false
		}
		for _, p := range ppo.Pairs() {
			if !sem.Has(p[0], p[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickProgramOrderAcyclic: po and ppo are always acyclic; causal
// order is acyclic whenever every read's writer precedes it plausibly
// (our generator can produce causal cycles — reads of values written
// "later" — so only check po/ppo here).
func TestQuickProgramOrderAcyclic(t *testing.T) {
	prop := func(g genSys) bool {
		return !Program(g.Sys).HasCycle() && !PartialProgram(g.Sys).HasCycle()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickLinearExtensionsRespect: every enumerated extension respects
// the (acyclified) relation.
func TestQuickLinearExtensionsRespect(t *testing.T) {
	prop := func(g genSys) bool {
		s := g.Sys
		po := Program(s)
		ok := true
		count := 0
		LinearExtensions(s.Writes(), po, func(ext []history.OpID) bool {
			count++
			if !po.Respects(ext) {
				ok = false
				return false
			}
			return count < 200 // bound the enumeration
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddChainTotalOrder(t *testing.T) {
	prop := func(g genSys) bool {
		s := g.Sys
		rel := New(s.NumOps())
		ids := s.Ops()
		rel.AddChain(ids)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if !rel.Has(ids[i], ids[j]) || rel.Has(ids[j], ids[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickClosureMatchesReachability holds TransitiveClosure and
// HasCycle, on the one-word path (at most 64 operations) and the
// multi-word one, to reachability by plain graph search.
func TestQuickClosureMatchesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(140)
		rel := New(n)
		for i := rng.Intn(2 * n); i > 0; i-- {
			rel.Add(history.OpID(rng.Intn(n)), history.OpID(rng.Intn(n)))
		}
		cyclic := false
		want := make([][]bool, n)
		for a := 0; a < n; a++ {
			want[a] = make([]bool, n)
			stack := []int{a}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for b := 0; b < n; b++ {
					if rel.Has(history.OpID(x), history.OpID(b)) && !want[a][b] {
						want[a][b] = true
						stack = append(stack, b)
					}
				}
			}
			cyclic = cyclic || want[a][a]
		}
		if got := rel.HasCycle(); got != cyclic {
			t.Fatalf("n=%d: HasCycle %v, reachability says %v", n, got, cyclic)
		}
		c := rel.Clone().TransitiveClosure()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if c.Has(history.OpID(a), history.OpID(b)) != want[a][b] {
					t.Fatalf("n=%d: closure has (%d,%d)=%v, reachability says %v", n, a, b, !want[a][b], want[a][b])
				}
			}
		}
	}
}
