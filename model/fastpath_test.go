package model

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/history"
	"repro/order"
)

// TestRouteModeString pins the CLI/test-name rendering of the modes.
func TestRouteModeString(t *testing.T) {
	if got := RouteAuto.String(); got != "auto" {
		t.Errorf("RouteAuto.String() = %q, want %q", got, "auto")
	}
	if got := RouteEnumerate.String(); got != "enumerate" {
		t.Errorf("RouteEnumerate.String() = %q, want %q", got, "enumerate")
	}
}

// TestRouteContextRoundTrip: WithRoute/RouteFromContext carry the mode, and
// a bare context defaults to RouteAuto.
func TestRouteContextRoundTrip(t *testing.T) {
	if got := RouteFromContext(context.Background()); got != RouteAuto {
		t.Errorf("default route = %v, want RouteAuto", got)
	}
	ctx := WithRoute(context.Background(), RouteEnumerate)
	if got := RouteFromContext(ctx); got != RouteEnumerate {
		t.Errorf("route after WithRoute = %v, want RouteEnumerate", got)
	}
}

// TestProcedureCoversAllModels: every registered model has a procedure
// entry, and the models with dedicated fast paths or pre-passes name them —
// this keeps the README's model→procedure table honest against All().
func TestProcedureCoversAllModels(t *testing.T) {
	special := map[string]bool{
		"SC": true, "PRAM": true, "Causal": true, "Coherence": true,
		"TSO": true, "PC": true, "PCG": true,
		"TSO-ax": true, "WO": true, "RCsc": true, "RCpc": true, "Causal+Coh": true,
		"Slow": true,
	}
	for _, m := range All() {
		p := Procedure(m)
		if p == "" {
			t.Errorf("Procedure(%s) is empty", m.Name())
			continue
		}
		if special[m.Name()] && p == "enumeration" {
			t.Errorf("Procedure(%s) = %q — the fast path or pre-pass is not registered", m.Name(), p)
		}
		if !special[m.Name()] && p != "enumeration" {
			t.Errorf("Procedure(%s) = %q, want %q", m.Name(), p, "enumeration")
		}
	}
}

// TestReadmeProcedureTable: README's model→procedure table is generated
// from Procedure over All(); the test fails, printing the current table,
// when README's copy drifts from the derived procedures.
func TestReadmeProcedureTable(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("| Model | Procedure under `RouteAuto` |\n|---|---|\n")
	for _, m := range All() {
		fmt.Fprintf(&sb, "| %s | %s |\n", m.Name(), Procedure(m))
	}
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), sb.String()) {
		t.Errorf("README.md's model→procedure table is stale; replace it with:\n%s", sb.String())
	}
}

// TestRouterVerdictsMatchEnumerator is the model-layer differential test
// for the fast paths: on every Figure 1–4 history (plus the enumeration-
// stressing shapes), every model's RouteAuto verdict must equal its
// RouteEnumerate verdict, and fast-path witnesses must independently
// verify. The full-corpus version runs in litmus/differential_test.go.
func TestRouterVerdictsMatchEnumerator(t *testing.T) {
	fast := WithRoute(context.Background(), RouteAuto)
	oracle := WithRoute(context.Background(), RouteEnumerate)
	for _, h := range differentialHistories {
		s := parseDifferential(t, h.text)
		for _, m := range All() {
			fv, ferr := AllowsCtx(fast, m, s)
			ev, eerr := AllowsCtx(oracle, m, s)
			if (ferr == nil) != (eerr == nil) {
				t.Errorf("%s under %s: fast err=%v, enumerator err=%v", h.name, m.Name(), ferr, eerr)
				continue
			}
			if ferr != nil {
				continue // both errored consistently (e.g. ambiguous reads-from)
			}
			if fv.Allowed != ev.Allowed {
				t.Errorf("%s under %s: fast allowed=%v, enumerator allowed=%v",
					h.name, m.Name(), fv.Allowed, ev.Allowed)
			}
			if fv.Allowed {
				if err := VerifyWitness(m, s, fv.Witness); err != nil {
					t.Errorf("%s under %s: fast-path witness fails verification: %v", h.name, m.Name(), err)
				}
			}
		}
	}
}

// TestGreedyViewConstructsAndCertifies: on a history every model allows,
// the greedy construction over the saturated program order must succeed for
// each processor's view problem, and the view it returns must be legal
// (greedyView certifies internally; re-check here so a certification bug
// cannot hide behind the fallback).
func TestGreedyViewConstructsAndCertifies(t *testing.T) {
	s := parseDifferential(t, "p0: w(x)1 r(y)1\np1: w(y)1 r(x)1")
	for p := 0; p < s.NumProcs(); p++ {
		ops := s.ViewOps(history.Proc(p))
		rel := order.Program(s)
		acyclic, _, err := order.SaturateForced(s, ops, rel)
		if err != nil || !acyclic {
			t.Fatalf("p%d: saturate acyclic=%v err=%v", p, acyclic, err)
		}
		v, ok := greedyView(s, ops, rel)
		if !ok {
			t.Fatalf("p%d: greedy construction failed on a trivially legal view problem", p)
		}
		if err := v.Legal(s); err != nil {
			t.Fatalf("p%d: greedy view is not legal: %v", p, err)
		}
		if len(v) != len(ops) {
			t.Fatalf("p%d: view has %d operations, want %d", p, len(v), len(ops))
		}
	}
}

// TestGreedyViewRefusesLargeProblems: the bitmask construction is bounded
// at 64 operations; beyond that it must decline (fall back) rather than
// misbehave.
func TestGreedyViewRefusesLargeProblems(t *testing.T) {
	b := history.NewBuilder(1)
	for i := 0; i < 65; i++ {
		b.Write(0, history.Loc("x"), history.Value(i+1))
	}
	s := b.System()
	if _, ok := greedyView(s, s.Ops(), order.Program(s)); ok {
		t.Fatal("greedyView accepted a 65-operation problem; the bitmask bound is 64")
	}
}
