package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/model"
)

// TestBenchmarkAllocs is the exact allocation gate over the benchmarks'
// own cases: unlike their ns/op, a check's allocations do not depend on
// the host, so CI can hold them to fixed numbers. Every fastPathCases
// check stays under its ceiling on both routes. On every overheadCases
// decision, AllowsCtx on a bare context allocates no more than the
// model's own Allows, and AllowsCtx under a budget and deadline at most
// budgetAllocs more.
//
// testing.AllocsPerRun runs at GOMAXPROCS 1, so every check takes its
// sequential path and the counts are the same on every host.
// BenchmarkFastPath's allocs/op at -cpu 2 and above add the parallel
// enumeration's per-worker allocations, and vary with scheduling
// (TSO/many-writes: 37 and 28 here, 76 to 88 at -cpu 2).
func TestBenchmarkAllocs(t *testing.T) {
	for _, c := range fastPathCases(t) {
		ceilings := c.maxAllocs
		if raceEnabled {
			ceilings = c.maxRace
		}
		for _, route := range fastPathRoutes {
			ctx := model.WithRoute(context.Background(), route)
			name, ceiling := c.name+"/"+route.String(), ceilings.of(route)
			got := checkAllocs(t, func() (model.Verdict, error) { return model.AllowsCtx(ctx, c.model, c.hist) })
			t.Logf("%-31s %5.1f allocs/check (ceiling %d)", name, got, ceiling)
			if got > float64(ceiling) {
				t.Errorf("%s: %.1f allocs/check, ceiling %d", name, got, ceiling)
			}
		}
	}

	budgeted, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	budgeted = model.WithBudget(budgeted, model.DefaultBudget())
	for _, c := range overheadCases {
		tc, m := c.load(t)
		name := c.test + "/" + c.model
		plain := checkAllocs(t, func() (model.Verdict, error) { return m.Allows(context.Background(), tc.History) })
		bare := checkAllocs(t, func() (model.Verdict, error) {
			return model.AllowsCtx(context.Background(), m, tc.History)
		})
		metered := checkAllocs(t, func() (model.Verdict, error) { return model.AllowsCtx(budgeted, m, tc.History) })
		t.Logf("%-31s %5.1f Allows, %5.1f AllowsCtx, %5.1f budgeted", name, plain, bare, metered)
		if bare > plain+overheadSlack {
			t.Errorf("%s: AllowsCtx on a bare context %.1f allocs/check, Allows %.1f", name, bare, plain)
		}
		if metered > plain+budgetAllocs+overheadSlack {
			t.Errorf("%s: budgeted AllowsCtx %.1f allocs/check, more than %d over Allows (%.1f)",
				name, metered, budgetAllocs, plain)
		}
	}
}

// budgetAllocs is what a budget and deadline may add to a check: the
// meter and its hookup (3 on all three overhead cases).
const budgetAllocs = 3

// checkAllocs returns the mean mallocs of one call of check, which must
// decide. A thousand runs hold the mean under -race, whose sync.Pool
// drops a share of what is put back, to within one of its value.
func checkAllocs(t *testing.T, check func() (model.Verdict, error)) float64 {
	t.Helper()
	return testing.AllocsPerRun(1000, func() {
		if v, err := check(); err != nil || !v.Decided() {
			t.Fatalf("verdict %+v err %v", v, err)
		}
	})
}
