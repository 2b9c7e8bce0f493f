package model_test

import (
	"context"
	"testing"
	"time"

	"repro/history"
	"repro/model"
)

// routedModels are the models whose RouteAuto procedure differs from plain
// enumeration (fast path or pre-pass); the budget-soundness tests below
// mirror budget_test.go for these new code paths.
func routedModels() []model.Model {
	return []model.Model{
		model.SC, model.PRAM, model.Causal, model.Coherence,
		model.TSO, model.PC, model.PCG,
	}
}

// TestFastPathNodeBudgetReturnsUnknown: the saturation and construction
// work of the fast paths is charged to the node meter, so a one-node
// budget must cut every routed check short with BudgetExhausted — never a
// hang and never a decided verdict bought with unmetered work.
func TestFastPathNodeBudgetReturnsUnknown(t *testing.T) {
	s, err := history.Parse("p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range routedModels() {
		ctx := model.WithBudget(context.Background(), model.Budget{MaxNodes: 1})
		v, err := model.AllowsCtx(ctx, m, s)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if v.Decided() {
			t.Errorf("%s: decided under a 1-node budget — fast-path work is not metered", m.Name())
			continue
		}
		if v.Unknown != model.BudgetExhausted {
			t.Errorf("%s: Unknown = %v, want %v", m.Name(), v.Unknown, model.BudgetExhausted)
		}
	}
}

// TestFastPathCancellationReturnsUnknown: an already-cancelled context
// stops every routed check before it does real work, exactly as it stops
// the enumerator.
func TestFastPathCancellationReturnsUnknown(t *testing.T) {
	s, err := history.Parse("p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(model.WithRoute(context.Background(), model.RouteAuto))
	cancel()
	for _, m := range routedModels() {
		v, err := model.AllowsCtx(ctx, m, s)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if v.Decided() {
			t.Errorf("%s: decided under a cancelled context", m.Name())
		} else if v.Unknown != model.Canceled {
			t.Errorf("%s: Unknown = %v, want %v", m.Name(), v.Unknown, model.Canceled)
		}
	}
}

// TestFastPathTightBudgetNeverFlipsVerdict sweeps a budget ladder over
// allowed and forbidden histories under RouteAuto: every rung either
// agrees with the unbudgeted verdict or reports Unknown — a budget may
// starve a fast path mid-saturation, but it must never flip its answer.
func TestFastPathTightBudgetNeverFlipsVerdict(t *testing.T) {
	histories := []string{
		"p0: w(x)1 r(y)0\np1: w(y)1 r(x)0",             // SB: forbidden under SC, allowed under TSO
		"p0: w(x)1 r(x)1 r(x)2\np1: w(x)2 r(x)2 r(x)1", // Fig3: coherence violation
		"p0: w(x)1 w(y)1\np1: r(y)1 r(x)1",             // MP: allowed everywhere
		"p0: w(x)1\np1: r(x)1 r(x)0",                   // forced-cycle reject
	}
	for _, text := range histories {
		s, err := history.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range routedModels() {
			ref, refErr := model.AllowsCtx(context.Background(), m, s)
			if refErr != nil {
				continue
			}
			for _, cap := range []int64{1, 4, 16, 64, 256, 1 << 20} {
				ctx := model.WithBudget(context.Background(),
					model.Budget{MaxNodes: cap, MaxCandidates: cap})
				v, err := model.AllowsCtx(ctx, m, s)
				if err != nil {
					t.Fatalf("%s cap=%d: %v", m.Name(), cap, err)
				}
				if v.Decided() && v.Allowed != ref.Allowed {
					t.Errorf("%q under %s cap=%d: decided %v, unbudgeted says %v",
						text, m.Name(), cap, v.Allowed, ref.Allowed)
				}
			}
		}
	}
}

// TestFastPathGenerousBudgetDecides: at a generous budget the routed
// checks must decide (no Unknown) and agree with the enumeration oracle —
// the fast paths may not burn budget so fast that realistic limits starve
// litmus-scale checks the enumerator could finish.
func TestFastPathGenerousBudgetDecides(t *testing.T) {
	s, err := history.Parse("p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range routedModels() {
		ctx := model.WithBudget(context.Background(), model.DefaultBudget())
		v, err := model.AllowsCtx(ctx, m, s)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !v.Decided() {
			t.Errorf("%s: Unknown(%v) at the default budget", m.Name(), v.Unknown)
			continue
		}
		ref, err := model.AllowsCtx(model.WithRoute(context.Background(), model.RouteEnumerate), m, s)
		if err != nil {
			t.Fatalf("%s oracle: %v", m.Name(), err)
		}
		if v.Allowed != ref.Allowed {
			t.Errorf("%s: budgeted fast verdict %v, enumerator says %v", m.Name(), v.Allowed, ref.Allowed)
		}
	}
}

// TestCyclicWriteOrderDecidedBeforeDeadline pins a history a PCG
// simulator produced (seed 40, 36 operations) that TSO forbids because the
// orders a global write order must extend — program order and the
// write→write edges the pre-pass forces — are cyclic together. The
// write-order enumeration finds the cycle before walking a single
// ordering; a walk that met it only at the end of each ordering would try
// every ordering of the other writes without charging the meter, past any
// deadline.
// Under a 5 ms deadline the check must decide forbidden within 10 ms at 1
// and 2 workers.
func TestCyclicWriteOrderDecidedBeforeDeadline(t *testing.T) {
	s, err := history.Parse(`p0: r(z)0 w(y)1 w(y)2 w(y)3 w(z)4 r(x)1048579 r(x)2097155
p1: w(y)1048577 r(x)0 w(z)1048578 w(x)1048579 w(y)1048580 w(x)1048581 r(z)1048578 r(x)1048581 w(x)1048582 w(x)1048583 r(x)1048583 r(z)3145729 r(z)3145729
p2: r(y)0 w(z)2097153 w(y)2097154 r(x)1048579 w(x)2097155 w(y)2097156 r(x)2097155
p3: r(z)0 r(y)1048577 r(z)1048578 r(x)0 w(z)3145729 w(x)3145730 w(z)3145731 r(z)3145731 r(x)1048582`)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 5 * time.Millisecond
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithTimeout(model.WithRoute(context.Background(), model.RouteAuto), deadline)
		start := time.Now()
		v, err := model.WithWorkers(model.TSO, workers).Allows(ctx, s)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		t.Logf("workers=%d: allowed=%v in %v", workers, v.Allowed, elapsed)
		if !v.Decided() || v.Allowed {
			t.Errorf("workers=%d: allowed=%v unknown=%v, want decided forbidden", workers, v.Allowed, v.Unknown)
		}
		if elapsed > 2*deadline {
			t.Errorf("workers=%d: returned after %v, want ≤ %v", workers, elapsed, 2*deadline)
		}
	}
}
