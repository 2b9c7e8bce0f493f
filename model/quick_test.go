package model

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/history"
)

// genHistory wraps a random small history for use with testing/quick.
// Writes carry distinct per-location values; reads return 0 or the value
// of some write to their location, so reads-from always resolves.
type genHistory struct{ Sys *history.System }

// Generate implements quick.Generator.
func (genHistory) Generate(r *rand.Rand, _ int) reflect.Value {
	procs := 2 + r.Intn(2)
	ops := 5 + r.Intn(5)
	locs := 1 + r.Intn(3)
	b := history.NewBuilder(procs)
	next := make([]history.Value, locs)
	written := make([][]history.Value, locs)
	writes := 0
	for i := 0; i < ops; i++ {
		p := history.Proc(r.Intn(procs))
		l := r.Intn(locs)
		loc := history.Loc(fmt.Sprintf("l%d", l))
		if writes < 5 && r.Intn(2) == 0 {
			next[l]++
			b.Write(p, loc, next[l])
			written[l] = append(written[l], next[l])
			writes++
		} else {
			if k := r.Intn(len(written[l]) + 1); k == len(written[l]) {
				b.Read(p, loc, history.Initial)
			} else {
				b.Read(p, loc, written[l][k])
			}
		}
	}
	return reflect.ValueOf(genHistory{b.System()})
}

var quickCfg = &quick.Config{MaxCount: 120}

// TestQuickContainments checks the paper's Figure 5 containments as a
// property over random histories: whatever the stronger model allows, the
// weaker must allow.
func TestQuickContainments(t *testing.T) {
	pairs := [][2]Model{
		{SC, TSO},
		{SC, Coherence},
		{TSO, TSOAxiomatic},
		{TSOAxiomatic, PC},
		{TSO, Causal},
		{PC, PRAM},
		{Causal, PRAM},
		{CausalCoherent, Causal},
		{CausalCoherent, PCG},
		{PCG, PRAM},
		{WO, RCsc},
		{SC, WO},
	}
	prop := func(g genHistory) bool {
		for _, pr := range pairs {
			strong, err := pr[0].Allows(context.Background(), g.Sys)
			if err != nil {
				return false
			}
			if !strong.Allowed {
				continue
			}
			weak, err := pr[1].Allows(context.Background(), g.Sys)
			if err != nil {
				return false
			}
			if !weak.Allowed {
				t.Logf("containment %s ⊆ %s broken by:\n%s", pr[0].Name(), pr[1].Name(), g.Sys)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickWitnessesVerify checks that every accepting verdict carries a
// certificate that independently verifies.
func TestQuickWitnessesVerify(t *testing.T) {
	prop := func(g genHistory) bool {
		for _, m := range All() {
			v, err := m.Allows(context.Background(), g.Sys)
			if err != nil {
				return false // generator guarantees classifiability
			}
			if !v.Allowed {
				continue
			}
			if err := VerifyWitness(m, g.Sys, v.Witness); err != nil {
				t.Logf("witness verification failed: %v\n%s", err, g.Sys)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSCEquivalentToSingleSerialization: SC allows a history exactly
// when the PRAM checker with the "all operations, single view" reduction
// does — i.e., our SC is self-consistent with its definition: any legal po-
// respecting serialization yields identical processor views.
func TestQuickSCImpliesIdenticalViews(t *testing.T) {
	prop := func(g genHistory) bool {
		v, err := SC.Allows(context.Background(), g.Sys)
		if err != nil || !v.Allowed {
			return err == nil
		}
		first := v.Witness.Views[0]
		for p := 1; p < g.Sys.NumProcs(); p++ {
			if !v.Witness.Views[history.Proc(p)].Equal(first) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelEquivalence: on random histories, every enumerating
// checker's parallel path (Workers=3) reaches the same verdict as its
// sequential oracle (Workers=1), and parallel witnesses verify. This is the
// quick-check half of the differential suite (the corpus half lives in
// litmus/parallel_test.go).
func TestQuickParallelEquivalence(t *testing.T) {
	models := []Model{TSO, TSOAxiomatic, PC, PCG, RCsc, RCpc}
	prop := func(g genHistory) bool {
		for _, m := range models {
			sv, serr := WithWorkers(m, 1).Allows(context.Background(), g.Sys)
			pv, perr := WithWorkers(m, 3).Allows(context.Background(), g.Sys)
			if (serr == nil) != (perr == nil) {
				t.Logf("%s: sequential err=%v, parallel err=%v\n%s", m.Name(), serr, perr, g.Sys)
				return false
			}
			if serr != nil {
				continue
			}
			if sv.Allowed != pv.Allowed {
				t.Logf("%s: sequential allowed=%v, parallel allowed=%v\n%s",
					m.Name(), sv.Allowed, pv.Allowed, g.Sys)
				return false
			}
			if pv.Allowed {
				if err := VerifyWitness(m, g.Sys, pv.Witness); err != nil {
					t.Logf("%s: parallel witness fails verification: %v\n%s", m.Name(), err, g.Sys)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterminism: checkers are deterministic — two calls agree.
func TestQuickDeterminism(t *testing.T) {
	prop := func(g genHistory) bool {
		for _, m := range []Model{TSO, PC, Causal, RCsc} {
			a, err1 := m.Allows(context.Background(), g.Sys)
			b, err2 := m.Allows(context.Background(), g.Sys)
			if (err1 == nil) != (err2 == nil) || a.Allowed != b.Allowed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVerifyWitnessRejectsForgeries(t *testing.T) {
	s := parse(t, "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	v, err := TSO.Allows(context.Background(), s)
	if err != nil || !v.Allowed {
		t.Fatal("TSO should allow Figure 1")
	}
	if err := VerifyWitness(TSO, s, v.Witness); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	// Forgery 1: nil witness.
	if VerifyWitness(TSO, s, nil) == nil {
		t.Error("nil witness accepted")
	}
	// Forgery 2: swap two operations to break legality.
	forged := &Witness{Views: map[history.Proc]history.View{}, WriteOrder: v.Witness.WriteOrder}
	for p, view := range v.Witness.Views {
		cp := make(history.View, len(view))
		copy(cp, view)
		forged.Views[p] = cp
	}
	// Swapping the last two elements either breaks legality (a read of 0
	// moved after the write of 1) or breaks write-order agreement.
	v0 := forged.Views[0]
	v0[len(v0)-2], v0[len(v0)-1] = v0[len(v0)-1], v0[len(v0)-2]
	if VerifyWitness(TSO, s, forged) == nil {
		t.Error("forged views accepted")
	}
	// Forgery 3: drop a view.
	delete(forged.Views, 1)
	if VerifyWitness(TSO, s, forged) == nil {
		t.Error("missing view accepted")
	}
}
