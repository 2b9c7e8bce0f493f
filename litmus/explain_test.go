package litmus

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/model"
)

// TestExplainCorpusReplay is the replay-validator gate for witness
// explanations: for every corpus test under every model, Explain must
// succeed, its JSON rendering must round-trip, and the round-tripped
// explanation must re-validate against the history — the embedded witness
// verifies independently and every claimed edge label re-derives. The
// paper's Figures 1–4 are in the corpus, so this covers the acceptance
// criterion directly.
func TestExplainCorpusReplay(t *testing.T) {
	forEachCorpusModel(t, func(t *testing.T, tc Test, m model.Model) {
		v, err := m.Allows(context.Background(), tc.History)
		if err != nil {
			return // ambiguous/oversized for this model; not explainable
		}
		e, err := model.Explain(m, tc.History, v)
		if err != nil {
			t.Fatalf("%s: Explain: %v", m.Name(), err)
		}
		data, err := e.JSON()
		if err != nil {
			t.Fatalf("%s: JSON: %v", m.Name(), err)
		}
		var rt model.Explanation
		if err := json.Unmarshal(data, &rt); err != nil {
			t.Fatalf("%s: round-trip: %v", m.Name(), err)
		}
		if err := model.ValidateExplanation(m, tc.History, &rt); err != nil {
			t.Errorf("%s: replay validation: %v", m.Name(), err)
		}
		text := e.Text()
		if text == "" {
			t.Errorf("%s: empty text rendering", m.Name())
		}
		if v.Allowed && !strings.Contains(text, "allowed") {
			t.Errorf("%s: text rendering lacks verdict: %q", m.Name(), text)
		}
	})
}

// TestExplainTamperedEdgeRejected: the validator must reject an
// explanation whose edge labels were altered — otherwise it is not a
// replay check at all.
func TestExplainTamperedEdgeRejected(t *testing.T) {
	var sb Test
	for _, tc := range Corpus() {
		if tc.Name == "Fig1-SB" {
			sb = tc
			break
		}
	}
	if sb.History == nil {
		t.Fatal("corpus test Fig1-SB not found")
	}
	m := model.PC
	v, err := m.Allows(context.Background(), sb.History)
	if err != nil || !v.Allowed {
		t.Fatalf("Fig1-SB under PC: allowed=%v err=%v; corpus expects allowed", v.Allowed, err)
	}
	e, err := model.Explain(m, sb.History, v)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for vi := range e.Views {
		for ei := range e.Views[vi].Edges {
			if len(e.Views[vi].Edges[ei].Why) == 1 && e.Views[vi].Edges[ei].Why[0] == "solver" {
				e.Views[vi].Edges[ei].Why = []string{"ppo"}
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		// No free edge to tamper with; corrupt a forced one instead.
		e.Views[0].Edges[0].Why = []string{"solver"}
	}
	if err := model.ValidateExplanation(m, sb.History, e); err == nil {
		t.Error("validator accepted a tampered edge label")
	}
}
