package litmus

import (
	"context"
	"testing"
	"time"

	"repro/model"
)

// perCaseTimeout bounds one (test, model, workers) differential check. A
// hung or pathologically slow check fails that single case with a clear
// message instead of tripping the whole package's 10-minute deadline; the
// parallel leg retries once before failing, because a deadline there is
// occasionally scheduling jitter on a loaded CI box, not a verdict.
const perCaseTimeout = 30 * time.Second

// checkWithDeadline runs model.AllowsCtx on route under the per-case deadline,
// retrying once when workers > 1 and the only outcome was the deadline.
func checkWithDeadline(route model.RouteMode, m model.Model, tc Test, workers int) (model.Verdict, error) {
	attempts := 1
	if workers > 1 {
		attempts = 2
	}
	var v model.Verdict
	var err error
	for i := 0; i < attempts; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), perCaseTimeout)
		v, err = model.AllowsCtx(model.WithRoute(ctx, route), m, tc.History)
		cancel()
		if err != nil || v.Unknown != model.DeadlineExceeded {
			break
		}
	}
	return v, err
}

// TestFastPathMatchesEnumeratorOnCorpus is the differential-oracle matrix
// CI pins the fast paths against: every corpus history × every model ×
// {1, 4} workers, checked under RouteAuto (the fast paths and pre-passes)
// and under RouteEnumerate (the pure enumeration oracle). The two must
// agree exactly — same error presence, same verdict — and every fast-path
// witness must independently verify. A disagreement here is a soundness
// bug in a fast path, never a corpus problem.
func TestFastPathMatchesEnumeratorOnCorpus(t *testing.T) {
	fast, oracle := model.RouteAuto, model.RouteEnumerate
	forEachCorpusModel(t, func(t *testing.T, tc Test, m model.Model) {
		for _, workers := range []int{1, 4} {
			wm := model.WithWorkers(m, workers)
			fv, ferr := checkWithDeadline(fast, wm, tc, workers)
			ev, eerr := checkWithDeadline(oracle, wm, tc, workers)
			if (ferr == nil) != (eerr == nil) {
				t.Errorf("%s workers=%d: fast err=%v, enumerator err=%v",
					m.Name(), workers, ferr, eerr)
				continue
			}
			if ferr != nil {
				continue // both reject the history's shape identically
			}
			if !fv.Decided() || !ev.Decided() {
				t.Errorf("%s workers=%d: check undecided within %v (fast=%v, enum=%v)",
					m.Name(), workers, perCaseTimeout, fv.Unknown, ev.Unknown)
				continue
			}
			if fv.Allowed != ev.Allowed {
				t.Errorf("%s workers=%d: fast allowed=%v, enumerator allowed=%v",
					m.Name(), workers, fv.Allowed, ev.Allowed)
			}
			if fv.Allowed {
				if err := model.VerifyWitness(m, tc.History, fv.Witness); err != nil {
					t.Errorf("%s workers=%d: fast-path witness fails verification: %v",
						m.Name(), workers, err)
				}
			}
		}
	})
}

// TestFastPathMatchesCorpusExpectations: the routed checks must also agree
// with the corpus's pinned ground truth, not merely with the enumerator —
// a belt-and-braces guard against a correlated bug in both procedures.
func TestFastPathMatchesCorpusExpectations(t *testing.T) {
	ctx := model.WithRoute(context.Background(), model.RouteAuto)
	for _, lt := range Corpus() {
		rs, err := RunCtx(ctx, lt, model.All())
		if err != nil {
			t.Fatalf("%s: %v", lt.Name, err)
		}
		for _, r := range rs {
			if !r.Match() {
				t.Errorf("%s under %s: fast-path allowed=%v, corpus expects %v",
					r.Test, r.Model, r.Allowed, r.Expected)
			}
		}
	}
}
