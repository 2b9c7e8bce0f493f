package model_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/history"
	"repro/model"
	"repro/relate"
	"repro/sim"
)

// TestPrepassRoutesMatchEnumeration: the five specs RouteAuto sends through
// a pre-pass ahead of plain enumeration — the coherence pre-pass under
// bracket, fence and causal ingredients (WO, RCsc, RCpc, Causal+Coh) and
// the store-order pre-pass (TSO-ax) — return RouteEnumerate's verdict and
// error on the exhaustive 2×3×2 shape sweep and on 1,000 seeded simulator
// runs, half of them with labeled synchronization locations; every
// RouteAuto witness verifies independently.
func TestPrepassRoutesMatchEnumeration(t *testing.T) {
	// RCpc allows this WRC shape on labeled locations, yet p1's bracket
	// chain W0(s)1 → r1(x)0 → W1(t)1 runs through a read outside p2's
	// view. Saturating p2's view under the unrestricted chain closes a
	// forced cycle with p2's reads; the pre-pass must not.
	wrc := history.MustParse("p0: W(s)1\np1: R(s)1 r(x)0 W(t)1\np2: R(t)1 R(s)0\np3: w(z)1 w(z)2")
	if v, err := model.AllowsCtx(context.Background(), model.RCpc, wrc); err != nil || !v.Allowed {
		t.Fatalf("RCpc on the bracket-chain WRC history: %+v, %v; want allowed", v, err)
	}
	hs := []*history.System{wrc}
	relate.EnumerateHistories(2, 3, 2, func(s *history.System) bool {
		hs = append(hs, s)
		return true
	})
	mems := []func(int) sim.Memory{
		func(n int) sim.Memory { return sim.NewSlow(n) },
		func(n int) sim.Memory { return sim.NewPRAM(n) },
		func(n int) sim.Memory { return sim.NewCausal(n) },
		func(n int) sim.Memory { return sim.NewRCpc(n) },
		func(n int) sim.Memory { return sim.NewTSO(n) },
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cfg := sim.RandomRunConfig{
			Ops: 8 + rng.Intn(5), MaxWrites: 5, PInternal: 0.4,
			DataLocs: []history.Loc{"x", "y"},
		}
		if i%2 == 1 {
			cfg.DataLocs = []history.Loc{"x"}
			cfg.SyncLocs = []history.Loc{"s", "u"}
		}
		hs = append(hs, sim.RandomRun(mems[i%len(mems)](2+rng.Intn(2)), rng, cfg))
	}
	auto := model.WithRoute(context.Background(), model.RouteAuto)
	enum := model.WithRoute(context.Background(), model.RouteEnumerate)
	for _, m := range []model.Model{model.WO, model.RCsc, model.RCpc, model.CausalCoherent, model.TSOAxiomatic} {
		m = model.WithWorkers(m, 1)
		var allowed, forbidden int
		for _, s := range hs {
			va, errA := model.AllowsCtx(auto, m, s)
			ve, errE := model.AllowsCtx(enum, m, s)
			if (errA == nil) != (errE == nil) || (errA != nil && errA.Error() != errE.Error()) {
				t.Fatalf("%s: errors differ: auto %v, enumerate %v\n%s", m.Name(), errA, errE, s)
			}
			if errA != nil {
				continue
			}
			if va.Allowed != ve.Allowed {
				t.Fatalf("%s: auto allowed=%v, enumerate allowed=%v\n%s", m.Name(), va.Allowed, ve.Allowed, s)
			}
			if !va.Allowed {
				forbidden++
				continue
			}
			allowed++
			if err := model.VerifyWitness(m, s, va.Witness); err != nil {
				t.Fatalf("%s: auto witness fails verification: %v\n%s", m.Name(), err, s)
			}
		}
		if allowed == 0 || forbidden == 0 {
			t.Errorf("%s: %d allowed, %d forbidden; the sample does not exercise both verdicts", m.Name(), allowed, forbidden)
		}
	}
}

// TestStoreOrderEdges pins TSO-ax's value-axiom rules, one history per
// rule, then checks their soundness exhaustively: for every 2×2×2 sweep
// history TSO-ax allows under RouteEnumerate, the witness's store order
// contains every derived edge, and no history the rules forbid is
// allowed.
func TestStoreOrderEdges(t *testing.T) {
	for _, tc := range []struct {
		rule, text string
		before     [2]string // a store, and a store of another processor it must precede
	}{
		{"LoadOp", "p0: w(x)1\np1: r(x)1 w(y)1", [2]string{"w0(x)1", "w1(y)1"}},
		{"CoWR", "p0: w(x)1\np1: w(x)2 r(x)1", [2]string{"w1(x)2", "w0(x)1"}},
		{"CoRW", "p0: w(x)1 w(x)2\np1: w(y)1\np2: r(y)1 r(x)1", [2]string{"w1(y)1", "w0(x)2"}},
		{"initial read", "p0: w(x)1\np1: w(y)1\np2: r(y)1 r(x)0", [2]string{"w1(y)1", "w0(x)1"}},
	} {
		s := history.MustParse(tc.text)
		pairs, forbidden, ok := model.StoreOrderEdges(s)
		if !ok || forbidden {
			t.Fatalf("%s: ok=%v forbidden=%v", tc.rule, ok, forbidden)
		}
		found := false
		for _, pr := range pairs {
			found = found || s.Op(pr[0]).String() == tc.before[0] && s.Op(pr[1]).String() == tc.before[1]
		}
		if !found {
			t.Errorf("%s: %s does not precede %s in %v", tc.rule, tc.before[0], tc.before[1], pairs)
		}
	}
	for _, text := range []string{
		"p0: w(x)1 w(y)1\np1: r(y)1 r(x)0", // MP: the initial read must precede w(x)1
		"p0: r(x)1 w(x)1",                  // reads its own po-later store
	} {
		if _, forbidden, ok := model.StoreOrderEdges(history.MustParse(text)); !ok || !forbidden {
			t.Errorf("%q: ok=%v forbidden=%v, want forbidden", text, ok, forbidden)
		}
	}

	enum := model.WithRoute(context.Background(), model.RouteEnumerate)
	edges, rejected := 0, 0
	relate.EnumerateHistories(2, 2, 2, func(s *history.System) bool {
		pairs, forbidden, ok := model.StoreOrderEdges(s)
		if !ok {
			t.Fatalf("rules do not apply to sweep history\n%s", s)
		}
		v, err := model.AllowsCtx(enum, model.TSOAxiomatic, s)
		if err != nil {
			t.Fatal(err)
		}
		if forbidden {
			rejected++
			if v.Allowed {
				t.Fatalf("rules forbid a history TSO-ax allows\n%s", s)
			}
			return true
		}
		if !v.Allowed {
			return true
		}
		at := make(map[history.OpID]int)
		for i, id := range v.Witness.WriteOrder {
			at[id] = i
		}
		for _, pr := range pairs {
			if at[pr[0]] > at[pr[1]] {
				t.Fatalf("witness store order %v puts %v after %v\n%s",
					v.Witness.WriteOrder.String(s), s.Op(pr[0]), s.Op(pr[1]), s)
			}
			edges++
		}
		return true
	})
	if edges == 0 || rejected == 0 {
		t.Errorf("sweep derived %d cross-processor edges on allowed histories and forbade %d outright; the rules went unexercised", edges, rejected)
	}
}
