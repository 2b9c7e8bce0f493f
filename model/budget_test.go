package model_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/history"
	"repro/internal/fault"
	"repro/internal/pool"
	"repro/litmus"
	"repro/model"
)

// hardHistory builds an unsatisfiable history with `writers` single-write
// processors (writers! linear extensions of the write set) plus one reader
// whose reads contradict every coherence order: r(l0)1 then r(l0)0 forces
// the initial value after the write, so no view exists and the checker must
// exhaust the entire candidate space to reject.
func hardHistory(t *testing.T, writers int) *history.System {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < writers; i++ {
		fmt.Fprintf(&sb, "p%d: w(l%d)1\n", i, i)
	}
	fmt.Fprintf(&sb, "p%d: r(l0)1 r(l0)0", writers)
	s, err := history.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// enumerating pins a context to the pure-enumeration oracle. The budget
// tests below need the 12!-scale candidate space to actually be walked:
// under the default RouteAuto the forced-edge pre-pass proves hardHistory
// forbidden in polynomial time, which is correct but leaves nothing for a
// deadline or work budget to starve. Fast-path budget soundness has its own
// tests in fastpath_budget_test.go.
func enumerating(ctx context.Context) context.Context {
	return model.WithRoute(ctx, model.RouteEnumerate)
}

// TestDeadlineReturnsUnknownPromptly is the headline robustness check: a
// 12!-scale (≈479 million candidate) unsatisfiable membership question
// under a 100ms deadline must come back Unknown(model.DeadlineExceeded) within
// twice the deadline instead of hanging for hours.
func TestDeadlineReturnsUnknownPromptly(t *testing.T) {
	s := hardHistory(t, 12)
	const deadline = 100 * time.Millisecond
	for _, workers := range []int{1, 4} {
		m := model.WithWorkers(model.TSO, workers)
		ctx, cancel := context.WithTimeout(enumerating(context.Background()), deadline)
		start := time.Now()
		v, err := m.Allows(ctx, s)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if v.Decided() {
			t.Fatalf("workers=%d: 12!-scale check decided within %v — expected Unknown", workers, deadline)
		}
		if v.Unknown != model.DeadlineExceeded {
			t.Errorf("workers=%d: Unknown = %v, want %v", workers, v.Unknown, model.DeadlineExceeded)
		}
		if elapsed > 2*deadline {
			t.Errorf("workers=%d: returned after %v, want ≤ %v (2× deadline)", workers, elapsed, 2*deadline)
		}
		if v.Progress.Candidates == 0 {
			t.Errorf("workers=%d: no progress recorded before the deadline", workers)
		}
	}
}

// TestBudgetExhaustionReturnsUnknown checks the work-budget analogue: a
// candidate cap cuts the same check short with model.BudgetExhausted and honest
// progress counters.
func TestBudgetExhaustionReturnsUnknown(t *testing.T) {
	s := hardHistory(t, 10)
	for _, workers := range []int{1, 4} {
		m := model.WithWorkers(model.TSO, workers)
		ctx := model.WithBudget(enumerating(context.Background()), model.Budget{MaxCandidates: 1000})
		v, err := m.Allows(ctx, s)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if v.Unknown != model.BudgetExhausted {
			t.Fatalf("workers=%d: Unknown = %v, want %v", workers, v.Unknown, model.BudgetExhausted)
		}
		if v.Progress.Candidates < 1000 {
			t.Errorf("workers=%d: Progress.Candidates = %d, want ≥ 1000 (the budget must be reached before tripping)",
				workers, v.Progress.Candidates)
		}
	}
}

// TestNodeBudgetExhaustion trips on the search-node axis instead of the
// candidate axis: the view solver's expansions are metered too.
func TestNodeBudgetExhaustion(t *testing.T) {
	s := hardHistory(t, 10)
	m := model.TSO
	ctx := model.WithBudget(enumerating(context.Background()), model.Budget{MaxNodes: 2000})
	v, err := m.Allows(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unknown != model.BudgetExhausted {
		t.Fatalf("Unknown = %v, want %v", v.Unknown, model.BudgetExhausted)
	}
	if v.Progress.Nodes < 2000 {
		t.Errorf("Progress.Nodes = %d, want ≥ 2000", v.Progress.Nodes)
	}
}

// TestCancellationReturnsUnknown checks an already-cancelled context stops
// a check before it does any real work.
func TestCancellationReturnsUnknown(t *testing.T) {
	s := hardHistory(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range model.All() {
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

// TestBudgetDeterminism is the soundness ladder: whenever a budgeted check
// decides, its verdict must equal the unbudgeted one — a budget may only
// trade answers for Unknown, never flip them. And at the default budget the
// entire litmus corpus must decide (no Unknown), at 1 and 4 workers.
func TestBudgetDeterminism(t *testing.T) {
	models := model.All()
	for _, lt := range litmus.Corpus() {
		for _, m := range models {
			ref, refErr := m.Allows(context.Background(), lt.History)
			for _, workers := range []int{1, 4} {
				wm := model.WithWorkers(m, workers)
				ctx := model.WithBudget(context.Background(), model.DefaultBudget())
				v, err := model.AllowsCtx(ctx, wm, lt.History)
				if (err != nil) != (refErr != nil) {
					t.Errorf("%s under %s workers=%d: err=%v, unbudgeted err=%v", lt.Name, m.Name(), workers, err, refErr)
					continue
				}
				if err != nil {
					continue // both error identically (e.g. mixed-label locations)
				}
				if !v.Decided() {
					t.Errorf("%s under %s workers=%d: Unknown(%v) at the default budget — corpus must always decide",
						lt.Name, m.Name(), workers, v.Unknown)
					continue
				}
				if v.Allowed != ref.Allowed {
					t.Errorf("%s under %s workers=%d: budgeted verdict %v != unbudgeted %v",
						lt.Name, m.Name(), workers, v.Allowed, ref.Allowed)
				}
			}
		}
	}
}

// TestTightBudgetNeverFlipsVerdict sweeps a tiny-to-generous budget ladder
// over one decidable history: every rung either agrees with the unbudgeted
// verdict or reports Unknown — never a wrong answer.
func TestTightBudgetNeverFlipsVerdict(t *testing.T) {
	s := hardHistory(t, 6) // 6! = 720 candidates, rejected by model.TSO
	m := model.TSO
	ref, err := m.Allows(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int64{1, 10, 100, 1000, 1 << 20} {
		ctx := model.WithBudget(context.Background(), model.Budget{MaxCandidates: cap, MaxNodes: cap * 100})
		v, err := m.Allows(ctx, s)
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if v.Decided() && v.Allowed != ref.Allowed {
			t.Errorf("cap=%d: decided %v, unbudgeted says %v", cap, v.Allowed, ref.Allowed)
		}
	}
}

// TestWitnessBeforeBudgetIsSound: a witness found before the budget trips
// is a decided Allowed verdict, and the witness itself must verify.
func TestWitnessBeforeBudgetIsSound(t *testing.T) {
	s, err := history.Parse("p0: w(x)1 r(y)1\np1: w(y)1 r(x)1")
	if err != nil {
		t.Fatal(err)
	}
	m := model.TSO
	ctx := model.WithBudget(context.Background(), model.Budget{MaxCandidates: 1 << 20, MaxNodes: 1 << 24})
	v, err := m.Allows(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Decided() || !v.Allowed {
		t.Fatalf("expected Allowed, got decided=%v allowed=%v unknown=%v", v.Decided(), v.Allowed, v.Unknown)
	}
	if v.Witness == nil {
		t.Fatal("allowed verdict without witness")
	}
}

// TestWorkerPanicContained injects a panic into the shared worker pool
// during a parallel check: the process must survive, and the check must
// fail with a structured *pool.PanicError naming the faulting shard.
func TestWorkerPanicContained(t *testing.T) {
	var once atomic.Bool
	fault.Set(fault.PoolDrain, fault.Fault{Fn: func(worker int, item any) {
		if once.CompareAndSwap(false, true) {
			panic("injected checker fault")
		}
	}})
	defer fault.Clear(fault.PoolDrain)

	s := hardHistory(t, 6) // 720 candidates: well past the parallel threshold
	m := model.WithWorkers(model.TSO, 4)
	_, err := m.Allows(enumerating(context.Background()), s)
	if err == nil {
		t.Fatal("expected a contained panic error, got success")
	}
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *pool.PanicError", err, err)
	}
	if pe.Shard == "" {
		t.Error("PanicError.Shard is empty — the fault must name its shard")
	}
	if pe.Value != "injected checker fault" {
		t.Errorf("PanicError.Value = %v, want the injected value", pe.Value)
	}
}
