package model

import (
	"context"
	"testing"

	"repro/history"
)

// differentialHistories covers the paper's Figures 1–4 plus shapes that
// stress each enumeration kind (many-write linear extensions, multi-location
// coherence products, labeled serializations). The full-corpus differential
// test lives in litmus/parallel_test.go — package litmus imports model, so
// the corpus cannot be used from here.
var differentialHistories = []struct {
	name string
	text string
}{
	{"Fig1-SB", "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0"},
	{"Fig2-WRC", "p0: w(x)1\np1: r(x)1 w(y)2\np2: r(y)2 r(x)0"},
	{"Fig3-PRAM", "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0\np2: r(x)1 r(y)1"},
	{"Fig4-Causal", "p0: w(x)1\np1: r(x)1 w(x)2\np2: r(x)2 r(x)1"},
	{"coh-3writers", "p0: w(x)1\np1: w(x)2\np2: w(x)3 r(x)1"},
	{"many-writes", "p0: w(x)1 w(y)1 w(z)1\np1: w(x)2 w(y)2 w(z)2\np2: r(x)2 r(y)1 r(z)2"},
	{"labeled-rc", "p0: W(s)1 w(x)1 W(s)2\np1: R(s)2 r(x)1"},
	// Four writers of x and y: 2,520 write orders and 576 coherence
	// products, past the floor below which the helpers stay sequential;
	// the two readers see x's writes in opposite orders.
	{"wide-writes", "p0: w(x)1 w(y)1\np1: w(x)2 w(y)2\np2: w(x)3 w(y)3\np3: w(x)4 w(y)4\np4: r(x)1 r(x)2 r(y)2 r(y)1\np5: r(x)2 r(x)1"},
}

func parseDifferential(t *testing.T, text string) *history.System {
	t.Helper()
	s, err := history.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return s
}

// TestParallelVerdictsMatchSequential is the model-layer differential test:
// for every model and every Figure 1–4 history (plus enumeration-stressing
// shapes), the parallel checker's verdict must equal the sequential
// oracle's, and parallel witnesses must independently verify.
func TestParallelVerdictsMatchSequential(t *testing.T) {
	for _, h := range differentialHistories {
		s := parseDifferential(t, h.text)
		for _, m := range All() {
			seq := WithWorkers(m, 1)
			par := WithWorkers(m, 4)
			sv, serr := seq.Allows(context.Background(), s)
			pv, perr := par.Allows(context.Background(), s)
			if (serr == nil) != (perr == nil) {
				t.Errorf("%s under %s: sequential err=%v, parallel err=%v", h.name, m.Name(), serr, perr)
				continue
			}
			if serr != nil {
				continue // both errored consistently (e.g. ambiguous reads-from)
			}
			if sv.Allowed != pv.Allowed {
				t.Errorf("%s under %s: sequential allowed=%v, parallel allowed=%v",
					h.name, m.Name(), sv.Allowed, pv.Allowed)
			}
			if pv.Allowed {
				if err := VerifyWitness(m, s, pv.Witness); err != nil {
					t.Errorf("%s under %s: parallel witness fails verification: %v", h.name, m.Name(), err)
				}
			}
		}
	}
}

// TestWithWorkersCoversEnumeratingModels: WithWorkers must set the knob on
// every model that enumerates mutual-consistency structures and leave the
// single-solve models untouched.
func TestWithWorkersCoversEnumeratingModels(t *testing.T) {
	enumerating := map[string]bool{
		"TSO": true, "TSO-ax": true, "PC": true, "PCG": true, "RCsc": true,
		"RCpc": true, "WO": true, "Causal+Coh": true, "Causal+LCoh": true,
	}
	for _, m := range All() {
		got := WithWorkers(m, 3)
		if got.Name() != m.Name() {
			t.Errorf("WithWorkers changed the model identity: %s → %s", m.Name(), got.Name())
		}
		changed := got != m
		if enumerating[m.Name()] && !changed {
			t.Errorf("WithWorkers(%s, 3) did not set the knob", m.Name())
		}
		if !enumerating[m.Name()] && changed {
			t.Errorf("WithWorkers(%s, 3) modified a model with no knob", m.Name())
		}
	}
}
