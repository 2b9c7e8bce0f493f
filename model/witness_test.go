package model_test

import (
	"context"
	"testing"

	"repro/history"
	"repro/model"
)

// TestVerifyWitnessRejectsProgramOrderSwap: for every model whose views
// respect each processor's own full program order, swapping two of p0's
// operations in p0's own view — still a legal sequence, over the right
// operation set — must fail verification. The history has no reads and
// one write per location, so nothing but program order rules the swap out.
func TestVerifyWitnessRejectsProgramOrderSwap(t *testing.T) {
	s := history.MustParse("p0: w(x)1 w(y)1\np1: w(z)1")
	for _, name := range []string{"SC", "PRAM", "Causal", "PCG", "Causal+Coh", "Causal+LCoh", "Slow"} {
		m, err := model.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := model.AllowsCtx(context.Background(), m, s)
		if err != nil || !v.Allowed {
			t.Fatalf("%s: %+v, %v; want allowed", name, v, err)
		}
		if err := model.VerifyWitness(m, s, v.Witness); err != nil {
			t.Fatalf("%s: untampered witness fails: %v", name, err)
		}
		tampered := *v.Witness
		tampered.Views = make(map[history.Proc]history.View, len(v.Witness.Views))
		for p, view := range v.Witness.Views {
			tampered.Views[p] = append(history.View(nil), view...)
		}
		view := tampered.Views[0]
		var at []int
		for i, id := range view {
			if s.Op(id).Proc == 0 {
				at = append(at, i)
			}
		}
		view[at[0]], view[at[1]] = view[at[1]], view[at[0]]
		if err := view.Legal(s); err != nil {
			t.Fatalf("%s: swapped view is not legal, so the swap tests nothing: %v", name, err)
		}
		if model.VerifyWitness(m, s, &tampered) == nil {
			t.Errorf("%s: witness with p0's own writes swapped in its view verifies", name)
		}
	}
}
