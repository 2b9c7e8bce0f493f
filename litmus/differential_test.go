package litmus

import (
	"context"
	"testing"
	"time"

	"repro/model"
)

// caseBudget bounds each differential check by search nodes, a count
// that does not depend on timing. The corpus's largest check expands 124
// nodes (PC-not-PCG under TSO on the enumeration route, at 1 and 4
// workers); a check that needs more — or a nondeterministic one that only
// sometimes does — returns Unknown and fails on its first attempt.
var caseBudget = model.Budget{MaxNodes: 1 << 10}

// perCaseTimeout is only a hang guard: a hung check fails its own case
// with a clear message instead of tripping the package's 10-minute
// deadline. A check that hits it is never retried.
const perCaseTimeout = 30 * time.Second

// checkBounded runs model.AllowsCtx on route under caseBudget and the hang
// guard.
func checkBounded(route model.RouteMode, m model.Model, tc Test) (model.Verdict, error) {
	ctx, cancel := context.WithTimeout(context.Background(), perCaseTimeout)
	defer cancel()
	return model.AllowsCtx(model.WithBudget(model.WithRoute(ctx, route), caseBudget), m, tc.History)
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
			fv, ferr := checkBounded(fast, wm, tc)
			ev, eerr := checkBounded(oracle, wm, tc)
			if (ferr == nil) != (eerr == nil) {
				t.Errorf("%s workers=%d: fast err=%v, enumerator err=%v",
					m.Name(), workers, ferr, eerr)
				continue
			}
			if ferr != nil {
				continue // both reject the history's shape identically
			}
			if !fv.Decided() || !ev.Decided() {
				t.Errorf("%s workers=%d: check undecided within %d nodes and %v (fast=%v, enum=%v)",
					m.Name(), workers, caseBudget.MaxNodes, perCaseTimeout, fv.Unknown, ev.Unknown)
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
