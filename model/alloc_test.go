package model_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/history"
	"repro/model"
	"repro/sim"
)

// TestCheckAllocs gates the mallocs of a whole check, averaged over a
// fixed set of 24-op, 4-processor simulator runs (the shape of the
// service's fresh-miss checks, dealt over all nine memories) × all 14
// models, sequential and under a work budget as the service checks. The
// count does not depend on timing; the ceiling leaves headroom for the
// arenas' sync.Pool, which a garbage collection may empty mid-run.
func TestCheckAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var hs []*history.System
	for i := 0; i < 30; i++ {
		mems := sim.Memories(4)
		hs = append(hs, sim.RandomRun(mems[i%len(mems)], rng, sim.RandomRunConfig{
			Ops: 24, MaxWrites: 10, DataLocs: []history.Loc{"x", "y", "z"},
			PInternal: 0.5, DrainAtEnd: true,
		}))
	}
	ctx := model.WithBudget(context.Background(), model.Budget{MaxCandidates: 1 << 16, MaxNodes: 1 << 20})
	total, checks := 0.0, 0
	for _, m := range model.All() {
		wm := model.WithWorkers(m, 1)
		for _, s := range hs {
			total += testing.AllocsPerRun(1, func() {
				if _, err := model.AllowsCtx(ctx, wm, s); err != nil {
					t.Fatalf("%s: %v", m.Name(), err)
				}
			})
			checks++
		}
	}
	per := total / float64(checks)
	t.Logf("%.1f mallocs per check over %d checks (ceiling %d)", per, checks, maxCheckAllocs)
	if per > maxCheckAllocs {
		t.Errorf("%.1f mallocs per check, ceiling %d", per, maxCheckAllocs)
	}
}
