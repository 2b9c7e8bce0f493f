package explore

import (
	"context"
	"testing"
	"time"

	"repro/sim"
)

// TestExhaustiveCtxDeadline checks that an expired deadline truncates the
// exploration with IncompleteDeadline rather than erroring.
func TestExhaustiveCtxDeadline(t *testing.T) {
	m := bakeryMachine(t, sim.NewSC(3), 3, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	res, err := ExhaustiveCtx(ctx, m, Options{})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("deadline-cut exploration reported complete")
	}
	if res.Incomplete != IncompleteDeadline {
		t.Errorf("Incomplete = %v, want %v", res.Incomplete, IncompleteDeadline)
	}
}

// TestExhaustiveCtxCancel checks that cancelling mid-flight returns the
// partial result with IncompleteCanceled and a nil error.
func TestExhaustiveCtxCancel(t *testing.T) {
	m := bakeryMachine(t, sim.NewSC(2), 2, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing past the root may be explored
	res, err := ExhaustiveCtx(ctx, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != IncompleteCanceled {
		t.Errorf("Incomplete = %v, want %v", res.Incomplete, IncompleteCanceled)
	}
}

// TestIncompleteReasonTruncation checks that each truncation path records
// its distinct reason — MaxStates and MaxDepth are distinguishable from each
// other and from cancellation (the documented Options contract).
func TestIncompleteReasonTruncation(t *testing.T) {
	m := bakeryMachine(t, sim.NewSC(2), 2, false)
	res, err := ExhaustiveCtx(context.Background(), m, Options{MaxStates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != IncompleteMaxStates {
		t.Errorf("MaxStates cut: Incomplete = %v, want %v", res.Incomplete, IncompleteMaxStates)
	}

	m = bakeryMachine(t, sim.NewSC(2), 2, false)
	res, err = ExhaustiveCtx(context.Background(), m, Options{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != IncompleteMaxDepth {
		t.Errorf("MaxDepth cut: Incomplete = %v, want %v", res.Incomplete, IncompleteMaxDepth)
	}
}

// TestIncompleteReasonComplete checks a complete exploration reports
// IncompleteNone and String() renders every reason.
func TestIncompleteReasonComplete(t *testing.T) {
	m := bakeryMachine(t, sim.NewSC(2), 2, false)
	res, err := Exhaustive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Incomplete != IncompleteNone {
		t.Errorf("complete run: Complete=%v Incomplete=%v", res.Complete, res.Incomplete)
	}
	for r := IncompleteNone; r <= IncompleteCanceled; r++ {
		if r.String() == "" {
			t.Errorf("IncompleteReason(%d).String() is empty", r)
		}
	}
}
