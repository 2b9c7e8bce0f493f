package model

import (
	"context"
	"math/rand"
	"testing"

	"repro/history"
	"repro/sim"
)

func axAllows(t *testing.T, text string) bool {
	t.Helper()
	s := parse(t, text)
	v, err := TSOAxiomatic.Allows(context.Background(), s)
	if err != nil {
		t.Fatalf("TSO-ax: %v", err)
	}
	return v.Allowed
}

func TestTSOAxiomaticSB(t *testing.T) {
	// Plain store buffering: allowed, as by the paper's TSO.
	if !axAllows(t, "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0") {
		t.Error("TSO-ax rejects SB")
	}
}

func TestTSOAxiomaticSBrfi(t *testing.T) {
	// THE divergence: store forwarding. SPARC TSO allows SB+rfi; the
	// paper's view-based TSO does not (see litmus test SB-rfi).
	sbrfi := "p0: w(x)1 r(x)1 r(y)0\np1: w(y)1 r(y)1 r(x)0"
	if !axAllows(t, sbrfi) {
		t.Error("TSO-ax rejects SB+rfi; SPARC allows it (forwarding)")
	}
	s := parse(t, sbrfi)
	v, err := TSO.Allows(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Allowed {
		t.Error("paper TSO accepts SB+rfi; its ppo should forbid it")
	}
}

func TestTSOAxiomaticRejectsMPAndIRIW(t *testing.T) {
	if axAllows(t, "p0: w(x)1 w(y)1\np1: r(y)1 r(x)0") {
		t.Error("TSO-ax allows MP (store order violated)")
	}
	if axAllows(t, "p0: w(x)1\np1: w(y)1\np2: r(x)1 r(y)0\np3: r(y)1 r(x)0") {
		t.Error("TSO-ax allows IRIW (single store order forbids it)")
	}
}

func TestTSOAxiomaticRejectsLB(t *testing.T) {
	// LoadOp orders each load before the program-order-later store.
	if axAllows(t, "p0: r(x)1 w(y)1\np1: r(y)1 w(x)1") {
		t.Error("TSO-ax allows LB")
	}
}

func TestTSOAxiomaticForwardingValues(t *testing.T) {
	// A load must be able to return the processor's own undrained store
	// even when a memory-order-earlier store to the location exists.
	// p0's r(x)2 forwards from its own w(x)2 while w(x)1 (by p1) may be
	// anywhere; p1 then reads 1 from its own store after p0's store
	// drains later — coherence-order gymnastics that the Value axiom
	// permits.
	if !axAllows(t, "p0: w(x)2 r(x)2\np1: w(x)1 r(x)1 r(x)2") {
		t.Error("TSO-ax rejects forwarding history")
	}
}

func TestTSOAxiomaticCoRR(t *testing.T) {
	// Even SPARC TSO forbids two readers disagreeing on one writer's
	// store order.
	if axAllows(t, "p0: w(x)1 w(x)2\np1: r(x)1 r(x)2\np2: r(x)2 r(x)1") {
		t.Error("TSO-ax allows CoRR")
	}
}

// TestPaperTSOSubsetAxiomatic: every history the paper's TSO allows is
// allowed by the axiomatic TSO (the converse fails on SB+rfi), over
// corpus histories and random simulator runs.
func TestPaperTSOSubsetAxiomatic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for seed := 0; seed < 40; seed++ {
		mem := sim.NewTSO(2 + rng.Intn(2))
		h := sim.RandomRun(mem, rng, sim.RandomRunConfig{
			Ops: 8 + rng.Intn(4), MaxWrites: 5, PInternal: 0.4,
			DataLocs: []history.Loc{"x", "y"},
		})
		paper, err := TSO.Allows(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		ax, err := TSOAxiomatic.Allows(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		if paper.Allowed && !ax.Allowed {
			t.Fatalf("paper-TSO history rejected by axiomatic TSO:\n%s", h)
		}
		// Every forwarding-machine history must be axiomatic-TSO.
		if !ax.Allowed {
			t.Fatalf("forwarding TSO machine produced a non-axiomatic history:\n%s", h)
		}
	}
}

// TestAxiomaticIncomparableWithPC pins a finding of this reproduction:
// the axiomatic (SPARC) TSO and the paper's PC are incomparable. PC \
// TSO-ax is witnessed by Figure 2 (no single store order); TSO-ax \ PC by
// a store-forwarding history under a coherence-forced write order, found
// by the exhaustive 2-processor 3-operation shape sweep. The paper's PC
// formalization — like its TSO — cannot express store forwarding, because
// ppo keeps same-location write→read pairs ordered in views.
func TestAxiomaticIncomparableWithPC(t *testing.T) {
	// PC \ TSO-ax: Figure 2.
	fig2 := "p0: w(x)1\np1: r(x)1 w(y)1\np2: r(y)1 r(x)0"
	if axAllows(t, fig2) {
		t.Error("TSO-ax allows Figure 2; a single store order should forbid it")
	}
	s := parse(t, fig2)
	if v, err := (PC).Allows(context.Background(), s); err != nil || !v.Allowed {
		t.Errorf("PC rejects Figure 2: %v", err)
	}
	// TSO-ax \ PC: the forwarding counterexample.
	fwd := "p0: w(x)1 r(x)1 r(y)0\np1: w(y)1 w(x)2 r(x)1"
	if !axAllows(t, fwd) {
		t.Error("TSO-ax rejects the forwarding counterexample")
	}
	s = parse(t, fwd)
	if v, err := (PC).Allows(context.Background(), s); err != nil || v.Allowed {
		t.Errorf("PC accepts the forwarding counterexample (err=%v)", err)
	}
}

// TestAxiomaticSubsetPRAM: every axiomatic-TSO history is PRAM (views can
// always place other processors' writes late enough), over random
// forwarding-machine runs.
func TestAxiomaticSubsetPRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for seed := 0; seed < 60; seed++ {
		mem := sim.NewTSO(2)
		h := sim.RandomRun(mem, rng, sim.RandomRunConfig{
			Ops: 8, MaxWrites: 5, PInternal: 0.3,
			DataLocs: []history.Loc{"x", "y"},
		})
		ax, err := TSOAxiomatic.Allows(context.Background(), h)
		if err != nil || !ax.Allowed {
			continue
		}
		checked++
		pram, err := PRAM.Allows(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		if !pram.Allowed {
			t.Fatalf("axiomatic-TSO history rejected by PRAM:\n%s", h)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d histories checked", checked)
	}
}

func TestTSOAxiomaticWitnessStoreOrder(t *testing.T) {
	s := parse(t, "p0: w(x)1 w(y)2\np1: r(y)2 r(x)1")
	v, err := TSOAxiomatic.Allows(context.Background(), s)
	if err != nil || !v.Allowed {
		t.Fatalf("Allows = %+v, %v", v, err)
	}
	if len(v.Witness.WriteOrder) != 2 {
		t.Errorf("witness store order %v", v.Witness.WriteOrder)
	}
	// The store order must respect p0's program order.
	if v.Witness.WriteOrder[0] != s.ProcOps(0)[0] {
		t.Errorf("store order violates program order: %v", v.Witness.WriteOrder.String(s))
	}
}
