package model

import (
	"context"
	"testing"

	"repro/history"
)

// The paper's figure histories.
const (
	fig1 = "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0"
	fig2 = "p0: w(x)1\np1: r(x)1 w(y)1\np2: r(y)1 r(x)0"
	fig3 = "p0: w(x)1 r(x)1 r(x)2\np1: w(x)2 r(x)2 r(x)1"
	fig4 = "p0: w(x)1 w(y)1\np1: r(y)1 w(z)1 r(x)2\np2: w(x)2 r(x)1 r(z)1 r(y)1"
)

// bakeryViolation is the Section-5 execution in which both processors of a
// two-processor Bakery instance enter the critical section: each processor
// orders the other's (labeled) writes after all of its own operations.
// Locations: cI = choosing[I] (1 = true, 2 = written false), nI =
// number[I]. All operations are labeled, per the paper's labeling of the
// Bakery algorithm. Reads of 0 observe initial values: neither processor
// sees the other's writes before entering its critical section.
const bakeryViolation = `
p0: W(c0)1 R(n1)0 W(n0)1 W(c0)2 R(c1)0 R(n1)0
p1: W(c1)1 R(n0)0 W(n1)1 W(c1)2 R(c0)0 R(n0)0`

func parse(t *testing.T, text string) *history.System {
	t.Helper()
	s, err := history.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

// check runs the model and validates any witness before returning the
// verdict.
func check(t *testing.T, m Model, s *history.System) bool {
	t.Helper()
	v, err := m.Allows(context.Background(), s)
	if err != nil {
		t.Fatalf("%s.Allows: %v", m.Name(), err)
	}
	if v.Allowed {
		validateWitness(t, m, s, v.Witness)
	}
	return v.Allowed
}

// validateWitness re-verifies a positive verdict's certificate through the
// public VerifyWitness, making every accepting test self-checking rather
// than trusting the solver.
func validateWitness(t *testing.T, m Model, s *history.System, w *Witness) {
	t.Helper()
	if err := VerifyWitness(m, s, w); err != nil {
		t.Errorf("witness verification: %v", err)
	}
}

// verdicts asserts the allowed/forbidden status of a history under a set
// of models.
func verdicts(t *testing.T, text string, want map[string]bool) {
	t.Helper()
	s := parse(t, text)
	for name, allowed := range want {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := check(t, m, s); got != allowed {
			t.Errorf("%s on %q: allowed=%v, want %v", name, text, got, allowed)
		}
	}
}

func TestFigure1(t *testing.T) {
	// Paper: "This execution is not possible with SC … However, this
	// execution is possible with TSO."
	verdicts(t, fig1, map[string]bool{
		"SC":         false,
		"TSO":        true,
		"PC":         true, // TSO ⊆ PC
		"PCG":        true,
		"Causal":     true,
		"PRAM":       true,
		"Coherence":  true,
		"Causal+Coh": true,
		"RCsc":       true, // no labeled ops: ppo + coherence only
		"RCpc":       true,
	})
}

func TestFigure2(t *testing.T) {
	// Paper: "Figure 2 shows an execution that is allowed by PC …
	// However, it is not possible to create processor views that
	// satisfy TSO requirements."
	verdicts(t, fig2, map[string]bool{
		"SC":     false,
		"TSO":    false,
		"PC":     true,
		"PCG":    true,
		"Causal": false, // the causal chain w(x)1 → … → r(x)0 forbids it
		"PRAM":   true,
	})
}

func TestFigure3(t *testing.T) {
	// Paper: "PRAM thus allows the execution shown in Figure 3, which
	// is not allowed by TSO."
	verdicts(t, fig3, map[string]bool{
		"SC":        false,
		"TSO":       false,
		"PC":        false, // PC is coherent; Figure 3 is not
		"PCG":       false,
		"Coherence": false,
		"Causal":    true, // causal memory is not coherent
		"PRAM":      true,
	})
}

func TestFigure4(t *testing.T) {
	// Paper: "Figure 4 shows an execution that is allowed by causal but
	// not by TSO."
	verdicts(t, fig4, map[string]bool{
		"SC":     false,
		"TSO":    false,
		"Causal": true,
		"PRAM":   true,
	})
}

func TestSCAcceptsSequentialHistory(t *testing.T) {
	verdicts(t, "p0: w(x)1 r(x)1\np1: r(x)1", map[string]bool{
		"SC": true, "TSO": true, "PC": true, "Causal": true, "PRAM": true,
	})
}

func TestSCWitnessIsSingleSerialization(t *testing.T) {
	s := parse(t, "p0: w(x)1\np1: r(x)1")
	v, err := SC.Allows(context.Background(), s)
	if err != nil || !v.Allowed {
		t.Fatalf("Allows = %+v, %v", v, err)
	}
	v0, v1 := v.Witness.Views[0], v.Witness.Views[1]
	if !v0.Equal(v1) {
		t.Error("SC views differ between processors")
	}
	if len(v0) != s.NumOps() {
		t.Error("SC view does not serialize all operations")
	}
}

func TestMessagePassingForbiddenBelowPRAM(t *testing.T) {
	// MP with stale read: forbidden by every model here (PRAM already
	// orders p0's writes in q's view).
	mp := "p0: w(x)1 w(y)1\np1: r(y)1 r(x)0"
	verdicts(t, mp, map[string]bool{
		"SC": false, "TSO": false, "PC": false, "PCG": false,
		"Causal": false, "PRAM": false, "Coherence": true,
	})
}

func TestIRIWAllowedByPC(t *testing.T) {
	// Independent reads of independent writes: the two readers disagree
	// on the order of the two writes. Forbidden by SC and TSO (which
	// impose a global write order), allowed by PC, Causal and PRAM.
	iriw := "p0: w(x)1\np1: w(y)1\np2: r(x)1 r(y)0\np3: r(y)1 r(x)0"
	verdicts(t, iriw, map[string]bool{
		"SC": false, "TSO": false, "PC": true, "PCG": true,
		"Causal": true, "PRAM": true, "Causal+Coh": true,
	})
}

func TestCoherenceModel(t *testing.T) {
	// Per-location serializable but globally unserializable (Figure 1).
	verdicts(t, fig1, map[string]bool{"Coherence": true})
	// Figure 3 violates even per-location serializability.
	verdicts(t, fig3, map[string]bool{"Coherence": false})
}

func TestCausalCoherentBetweenCausalAndSC(t *testing.T) {
	// Figure 3 is causal but not coherent, so Causal+Coh must reject it.
	verdicts(t, fig3, map[string]bool{"Causal": true, "Causal+Coh": false})
	// Figure 1 is causal and coherent.
	verdicts(t, fig1, map[string]bool{"Causal+Coh": true})
}

func TestRCBracketing(t *testing.T) {
	// Properly-labeled message passing: data write, release; acquire,
	// data read. Reading the data is mandatory once the acquire saw the
	// release.
	good := "p0: w(d)5 W(s)1\np1: R(s)1 r(d)5"
	verdicts(t, good, map[string]bool{"RCsc": true, "RCpc": true})

	stale := "p0: w(d)5 W(s)1\np1: R(s)1 r(d)0"
	verdicts(t, stale, map[string]bool{"RCsc": false, "RCpc": false})

	// If the acquire did NOT observe the release (read 0), the stale
	// data read is permitted: no bracketing edge applies.
	unsync := "p0: w(d)5 W(s)1\np1: R(s)0 r(d)0"
	verdicts(t, unsync, map[string]bool{"RCsc": true, "RCpc": true})
}

func TestRCscRejectsBakeryViolation(t *testing.T) {
	verdicts(t, bakeryViolation, map[string]bool{"RCsc": false})
}

func TestRCpcAllowsBakeryViolation(t *testing.T) {
	// The heart of the paper's Section 5: the mutual-exclusion-violating
	// execution is a legal RCpc history.
	verdicts(t, bakeryViolation, map[string]bool{"RCpc": true})
}

func TestBakeryViolationOtherModels(t *testing.T) {
	// The violation is also PC-like at the labeled level, hence weaker
	// models allow it; SC must reject it.
	verdicts(t, bakeryViolation, map[string]bool{"SC": false, "PRAM": true})
}

func TestRCscAllowsSequentialBakeryRound(t *testing.T) {
	// A fully sequential pass of one Bakery competitor (the other is
	// idle): trivially RCsc.
	seq := "p0: W(c0)1 R(n1)0 W(n0)1 W(c0)2 R(c1)0 R(n1)0\np1:"
	verdicts(t, seq, map[string]bool{"RCsc": true, "RCpc": true, "SC": true})
}

func TestRCLabelSeparationEnforced(t *testing.T) {
	s := parse(t, "p0: W(x)1\np1: r(x)1")
	if _, err := (RCsc).Allows(context.Background(), s); err == nil {
		t.Error("mixed labeled/ordinary access to one location accepted")
	}
	if _, err := (RCpc).Allows(context.Background(), s); err == nil {
		t.Error("mixed labeled/ordinary access to one location accepted (RCpc)")
	}
}

func TestAmbiguousReadsFromErrors(t *testing.T) {
	s := parse(t, "p0: w(x)1 w(x)1\np1: r(x)1")
	for _, m := range []Model{PC, Causal, RCsc, RCpc, CausalCoherent} {
		if _, err := m.Allows(context.Background(), s); err == nil {
			t.Errorf("%s accepted ambiguous reads-from", m.Name())
		}
	}
	// Models that do not resolve reads-from tolerate duplicates.
	for _, m := range []Model{SC, TSO, PRAM, PCG, Coherence} {
		if _, err := m.Allows(context.Background(), s); err != nil {
			t.Errorf("%s errored on duplicate values: %v", m.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name())
		if err != nil || got.Name() != m.Name() {
			t.Errorf("ByName(%q) = %v, %v", m.Name(), got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName of unknown model succeeded")
	}
}

func TestAllModelsOnEmptyishHistory(t *testing.T) {
	s := parse(t, "p0: w(x)1\np1:")
	for _, m := range All() {
		v, err := m.Allows(context.Background(), s)
		if err != nil {
			t.Errorf("%s on trivial history: %v", m.Name(), err)
			continue
		}
		if !v.Allowed {
			t.Errorf("%s rejects a single-write history", m.Name())
		}
	}
}

func TestSizeLimit(t *testing.T) {
	b := history.NewBuilder(1)
	for i := 0; i < 65; i++ {
		b.Write(0, "x", history.Value(i+1))
	}
	s := b.System()
	for _, m := range All() {
		if _, err := m.Allows(context.Background(), s); err == nil {
			t.Errorf("%s accepted oversize history", m.Name())
		}
	}
}

func TestSlowMemoryModel(t *testing.T) {
	// MP is the canonical slow-memory history: PRAM forbids, Slow allows.
	verdicts(t, "p0: w(x)1 w(y)1\np1: r(y)1 r(x)0", map[string]bool{
		"PRAM": false, "Slow": true,
	})
	// Per-(processor, location) order still holds.
	verdicts(t, "p0: w(x)1 w(x)2\np1: r(x)2 r(x)1", map[string]bool{
		"Slow": false,
	})
	// Own program order still holds: a processor must see its own writes.
	verdicts(t, "p0: w(x)1 r(x)0", map[string]bool{"Slow": false})
	// Everything PRAM allows, Slow allows (spot check with Figure 3).
	verdicts(t, "p0: w(x)1 r(x)1 r(x)2\np1: w(x)2 r(x)2 r(x)1", map[string]bool{
		"PRAM": true, "Slow": true,
	})
}

func TestCausalLabeledCoherent(t *testing.T) {
	// Ordinary Figure 3: no labeled writes, so labeled coherence is
	// vacuous and the verdict matches plain causal memory.
	verdicts(t, fig3, map[string]bool{
		"Causal+LCoh": true, "Causal+Coh": false, "Causal": true,
	})
	// Labeled Figure 3: the labeled writes must now be coherent.
	labeledFig3 := "p0: W(x)1 R(x)1 R(x)2\np1: W(x)2 R(x)2 R(x)1"
	verdicts(t, labeledFig3, map[string]bool{
		"Causal+LCoh": false, "Causal": true,
	})
	// Mixed history: ordinary incoherence tolerated while labeled
	// writes stay coherent.
	mixed := "p0: w(d)1 r(d)1 r(d)2 W(s)5\np1: w(d)2 r(d)2 r(d)1 R(s)5"
	verdicts(t, mixed, map[string]bool{
		"Causal+LCoh": true, "Causal+Coh": false,
	})
}
