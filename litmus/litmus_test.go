package litmus

import (
	"context"
	"testing"

	"repro/model"
)

// TestCorpusExpectations is the repository's central regression gate: every
// asserted verdict in the corpus must be reproduced by the checkers. The
// paper's figures are ground truth; the rest pin the model definitions.
func TestCorpusExpectations(t *testing.T) {
	results, err := RunCorpus(model.All())
	if err != nil {
		t.Fatal(err)
	}
	asserted := 0
	for _, r := range results {
		if !r.Asserted {
			continue
		}
		asserted++
		if !r.Match() {
			t.Errorf("%s under %s: allowed=%v, corpus expects %v", r.Test, r.Model, r.Allowed, r.Expected)
		}
	}
	if asserted < 60 {
		t.Errorf("only %d asserted expectations ran; corpus shrank?", asserted)
	}
}

func TestCorpusWellFormed(t *testing.T) {
	names := map[string]bool{}
	valid := map[string]bool{}
	for _, m := range model.All() {
		valid[m.Name()] = true
	}
	for _, tc := range Corpus() {
		if tc.Name == "" || tc.History == nil || tc.Source == "" {
			t.Errorf("test %+v incomplete", tc.Name)
		}
		if names[tc.Name] {
			t.Errorf("duplicate test name %q", tc.Name)
		}
		names[tc.Name] = true
		for mn := range tc.Expect {
			if !valid[mn] {
				t.Errorf("%s: expectation for unknown model %q", tc.Name, mn)
			}
		}
		if len(tc.Expect) == 0 {
			t.Errorf("%s: no expectations", tc.Name)
		}
	}
	if len(names) < 15 {
		t.Errorf("corpus has %d tests; expected at least 15", len(names))
	}
}

// TestCorpusContainments verifies the paper's Figure 5 inclusions on every
// corpus history: a history allowed by a stronger model must be allowed by
// each weaker one. This cross-checks the hand-written expectations against
// the lattice independently of package relate.
func TestCorpusContainments(t *testing.T) {
	stronger := map[string][]string{
		"SC":         {"TSO", "PC", "PCG", "Causal", "PRAM", "Causal+Coh", "Coherence"},
		"TSO":        {"PC", "Causal", "PRAM"},
		"PC":         {"PRAM"},
		"PCG":        {"PRAM", "Coherence"},
		"Causal":     {"PRAM"},
		"Causal+Coh": {"Causal", "PCG", "Coherence"},
	}
	byName := map[string]model.Model{}
	for _, m := range model.All() {
		byName[m.Name()] = m
	}
	for _, tc := range Corpus() {
		verdict := map[string]bool{}
		for name, m := range byName {
			v, err := m.Allows(context.Background(), tc.History)
			if err != nil {
				// RC checkers reject mixed-label locations etc.;
				// containment checks skip models that cannot
				// classify this history.
				continue
			}
			verdict[name] = v.Allowed
		}
		for strong, weaks := range stronger {
			sv, ok := verdict[strong]
			if !ok || !sv {
				continue
			}
			for _, weak := range weaks {
				if wv, ok := verdict[weak]; ok && !wv {
					t.Errorf("%s: allowed by %s but rejected by weaker %s", tc.Name, strong, weak)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	tc, err := ByName("Fig1-SB")
	if err != nil || tc.History == nil {
		t.Fatalf("ByName(Fig1-SB) = %+v, %v", tc, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName of unknown test succeeded")
	}
}

func TestResultMatch(t *testing.T) {
	if !(Result{Asserted: false, Allowed: true}).Match() {
		t.Error("unasserted result should vacuously match")
	}
	if (Result{Asserted: true, Allowed: true, Expected: false}).Match() {
		t.Error("mismatched result reported as match")
	}
}
