package relate

import (
	"context"
	"testing"

	"repro/model"
)

// TestBuildMatrixCtxUnknownColumn starves the big models with a tiny
// budget: cut-short checks must land in the Unknown column and be excluded
// from Classified, Allowed and Sep — never counted as rejections. The
// checks run under RouteEnumerate, whose cost does not fall as RouteAuto's
// pre-passes prune more, so the budget keeps starving some of them.
func TestBuildMatrixCtxUnknownColumn(t *testing.T) {
	hs := CorpusHistories()
	models := model.All()
	ctx := model.WithBudget(model.WithRoute(context.Background(), model.RouteEnumerate),
		model.Budget{MaxCandidates: 4, MaxNodes: 50})
	mx, err := BuildMatrix(ctx, hs, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	totalUnknown := 0
	for _, name := range mx.Models {
		totalUnknown += mx.Unknown[name]
		if mx.Unknown[name]+mx.Classified[name] > len(hs) {
			t.Errorf("%s: unknown (%d) + classified (%d) exceeds corpus size %d",
				name, mx.Unknown[name], mx.Classified[name], len(hs))
		}
	}
	if totalUnknown == 0 {
		t.Fatal("a 50-node budget starved no check — the Unknown column is untested")
	}

	// Soundness: every separation the starved matrix reports must also
	// exist in the unbudgeted matrix (Unknown may hide, never fabricate).
	full := mustMatrix(t, hs, models, 2)
	for _, a := range mx.Models {
		for _, b := range mx.Models {
			if mx.Sep[a][b] > 0 && full.Sep[a][b] == 0 {
				t.Errorf("budgeted matrix fabricated separation %s/%s = %d", a, b, mx.Sep[a][b])
			}
		}
	}
}

// TestBuildMatrixCtxNoBudgetMatchesLegacy: under an open context the
// parallel matrix is exactly the sequential one — no Unknown entries, same
// counts.
func TestBuildMatrixCtxNoBudgetMatchesLegacy(t *testing.T) {
	hs := CorpusHistories()
	models := []model.Model{model.SC, model.TSO, model.PRAM}
	mx, err := BuildMatrix(context.Background(), hs, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustMatrix(t, hs, models, 1)
	for _, name := range mx.Models {
		if mx.Unknown[name] != 0 {
			t.Errorf("%s: %d unknown without any budget", name, mx.Unknown[name])
		}
		if mx.Classified[name] != ref.Classified[name] || mx.Allowed[name] != ref.Allowed[name] {
			t.Errorf("%s: classified/allowed %d/%d, legacy %d/%d",
				name, mx.Classified[name], mx.Allowed[name], ref.Classified[name], ref.Allowed[name])
		}
	}
}

// TestDensityCtxCancelled: a cancelled context must abort the exhaustive
// sweep with the context's error rather than return a misleading partial
// density.
func TestDensityCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := Density(ctx, 2, 2, 2, 2, []model.Model{model.SC})
	if err == nil {
		t.Fatal("cancelled exhaustive sweep returned no error")
	}
}

// TestDensityCtxUnknownTally: a starving budget on the exhaustive sweep
// reports the cut-short checks per model instead of dropping them.
func TestDensityCtxUnknownTally(t *testing.T) {
	ctx := model.WithBudget(context.Background(), model.Budget{MaxNodes: 10})
	counts, unknown, total, err := Density(ctx, 2, 2, 2, 2, []model.Model{model.SC})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no histories enumerated")
	}
	if counts["SC"]+unknown["SC"] > total {
		t.Errorf("allowed (%d) + unknown (%d) exceeds total %d", counts["SC"], unknown["SC"], total)
	}
}
