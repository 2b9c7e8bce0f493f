package model_test

import (
	"context"
	"testing"

	"repro/history"
	"repro/litmus"
	"repro/model"
	"repro/relate"
)

// work is the summed effort of one model over one history set under one
// route: decided-or-stopped checks, mutual-consistency candidates tested
// and search nodes expanded.
type work struct{ checks, candidates, nodes int64 }

// goldenWork pins, per model, the work of the sequential checker (Workers
// 1, DefaultBudget) over the litmus corpus and over the exhaustive 2×2×2
// shape sweep (792 histories), under RouteAuto and RouteEnumerate, in the
// order corpus/auto, corpus/enumerate, sweep/auto, sweep/enumerate.
// Candidates and nodes are exact and independent of timing, so any change
// to a checker's procedure — a pre-pass lost or added, an ingredient
// ordered differently, a candidate space enumerated twice — moves them.
var goldenWork = map[string][4]work{
	"SC":          {{22, 0, 454}, {22, 0, 342}, {792, 0, 5560}, {792, 0, 4170}},
	"TSO":         {{22, 8, 582}, {22, 62, 659}, {792, 530, 11788}, {792, 1038, 6498}},
	"TSO-ax":      {{22, 10, 350}, {22, 61, 0}, {792, 702, 6552}, {792, 1038, 0}},
	"PC":          {{22, 15, 554}, {22, 31, 468}, {792, 688, 9686}, {792, 924, 7540}},
	"Causal":      {{22, 0, 357}, {22, 0, 367}, {792, 0, 4892}, {792, 0, 5432}},
	"PRAM":        {{22, 0, 345}, {22, 0, 406}, {792, 0, 6032}, {792, 0, 5902}},
	"Coherence":   {{22, 0, 248}, {22, 0, 249}, {792, 0, 4984}, {792, 0, 4294}},
	"WO":          {{22, 26, 589}, {22, 58, 566}, {792, 1376, 10442}, {792, 1848, 8588}},
	"RCsc":        {{22, 28, 614}, {22, 58, 577}, {792, 1376, 10442}, {792, 1848, 8588}},
	"RCpc":        {{22, 15, 575}, {22, 31, 507}, {792, 688, 9754}, {792, 924, 7664}},
	"PCG":         {{22, 13, 548}, {22, 33, 519}, {792, 688, 9752}, {792, 926, 7682}},
	"Causal+Coh":  {{22, 12, 519}, {22, 32, 478}, {792, 642, 9064}, {792, 762, 6896}},
	"Causal+LCoh": {{22, 23, 378}, {22, 23, 378}, {792, 676, 5432}, {792, 676, 5432}},
	"Slow":        {{22, 0, 309}, {22, 0, 484}, {792, 0, 6004}, {792, 0, 6038}},
}

// TestGoldenWorkCounts: every model does exactly the pinned work on the
// corpus and the shape sweep, at both routes. A refactor of the checkers
// must keep these numbers; a change that means to alter a procedure
// updates them and says why.
func TestGoldenWorkCounts(t *testing.T) {
	var corpus, sweep []*history.System
	for _, tc := range litmus.Corpus() {
		corpus = append(corpus, tc.History)
	}
	relate.EnumerateHistories(2, 2, 2, func(s *history.System) bool {
		sweep = append(sweep, s)
		return true
	})
	if len(sweep) != 792 {
		t.Fatalf("2×2×2 shape sweep has %d histories, want 792", len(sweep))
	}
	sets := []struct {
		name string
		hs   []*history.System
	}{{"corpus", corpus}, {"sweep", sweep}}
	routes := []model.RouteMode{model.RouteAuto, model.RouteEnumerate}
	for _, m := range model.All() {
		want, ok := goldenWork[m.Name()]
		if !ok {
			t.Errorf("%s: no golden work counts", m.Name())
			continue
		}
		wm := model.WithWorkers(m, 1)
		for si, set := range sets {
			for ri, route := range routes {
				ctx := model.WithRoute(model.WithBudget(context.Background(), model.DefaultBudget()), route)
				var got work
				for _, s := range set.hs {
					v, err := model.AllowsCtx(ctx, wm, s)
					if err != nil {
						continue
					}
					got.checks++
					got.candidates += v.Progress.Candidates
					got.nodes += v.Progress.Nodes
				}
				if w := want[2*si+ri]; got != w {
					t.Errorf("%s on %s/%s: %+v, want %+v", m.Name(), set.name, route, got, w)
				}
			}
		}
	}
}
