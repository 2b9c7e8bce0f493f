// Command paper runs the complete reproduction in one shot: every figure
// of Kohli, Neiger and Ahamad's "A Characterization of Scalable Shared
// Memories", claim versus measured, with a PASS/FAIL verdict per claim.
// It is the executable summary of EXPERIMENTS.md.
//
// Usage:
//
//	paper [-quick] [-workers N] [-timeout D] [-budget N] [-trace FILE]
//	      [-metrics FILE] [-report FILE] [-serve ADDR] [-pprof FILE]
//
// -timeout and -budget bound every check and exploration (a claim whose
// check is cut short FAILs rather than silently passing); -trace and
// -metrics stream the whole reproduction's events and counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/algorithms"
	"repro/cmd/internal/cliflags"
	"repro/drf"
	"repro/explore"
	"repro/litmus"
	"repro/model"
	"repro/program"
	"repro/relate"
	"repro/sim"
)

var failures int

func claim(section, what string, ok bool, detail string) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		failures++
	}
	fmt.Printf("[%s] %-10s %s", status, section, what)
	if detail != "" {
		fmt.Printf(" — %s", detail)
	}
	fmt.Println()
}

func main() {
	quick := flag.Bool("quick", false, "smaller random corpora")
	shared := cliflags.Register(flag.CommandLine)
	flag.Parse()

	ctx, done, err := shared.Setup(context.Background())
	if err != nil {
		fatal(err)
	}
	defer done()
	workers := shared.Workers
	models := make([]model.Model, 0, len(model.All()))
	for _, m := range model.All() {
		models = append(models, model.WithWorkers(m, workers))
	}

	fmt.Println("A Characterization of Scalable Shared Memories (Kohli, Neiger, Ahamad, 1993)")
	fmt.Println("reproduction report")
	fmt.Println()

	// Figures 1–4 and every other pinned verdict: the litmus corpus.
	results, err := litmus.RunCorpusCtx(ctx, models)
	if err != nil {
		fatal(err)
	}
	mismatches := 0
	asserted := 0
	for _, r := range results {
		if r.Asserted {
			asserted++
			if !r.Match() {
				mismatches++
				fmt.Printf("       corpus mismatch: %s under %s\n", r.Test, r.Model)
			}
		}
	}
	claim("Fig 1-4", "every pinned corpus verdict reproduced", mismatches == 0,
		fmt.Sprintf("%d asserted verdicts over %d tests × %d models",
			asserted, len(litmus.Corpus()), len(model.All())))

	// Figure 1's witness views, specifically.
	fig1, _ := litmus.ByName("Fig1-SB")
	v, err := model.AllowsCtx(ctx, model.WithWorkers(model.TSO, workers), fig1.History)
	ok := err == nil && v.Allowed && model.VerifyWitness(model.TSO, fig1.History, v.Witness) == nil
	claim("Fig 1", "TSO witness views verify independently", ok, "")

	// ... and its explanation replays: the machine-readable witness is
	// re-verified edge by edge (observability PR acceptance gate).
	ok = false
	if err == nil && v.Allowed {
		e, eerr := model.Explain(model.TSO, fig1.History, v)
		ok = eerr == nil && model.ValidateExplanation(model.TSO, fig1.History, e) == nil
	}
	claim("Fig 1", "TSO witness explanation validates by replay", ok, "")

	// Figure 5: sampled lattice.
	nRandom, nSims := 300, 6
	if *quick {
		nRandom, nSims = 60, 2
	}
	rng := rand.New(rand.NewSource(1993))
	hs := relate.CorpusHistories()
	hs = append(hs, relate.SimHistories(rng, nSims)...)
	for i := 0; i < nRandom; i++ {
		hs = append(hs, relate.RandomHistory(rng, relate.GenConfig{}))
		if i%3 == 0 {
			hs = append(hs, relate.RandomLabeledHistory(rng, relate.GenConfig{}))
		}
	}
	mx, err := relate.BuildMatrix(ctx, hs, models, workers)
	if err != nil {
		fatal(err)
	}
	violations, missing := mx.CheckLattice()
	claim("Fig 5", "containment lattice holds over sampled corpus", len(violations) == 0,
		fmt.Sprintf("%d histories, %d missing witnesses", len(hs), len(missing)))

	// Figure 5: exhaustive small shape.
	shapeP, shapeK, shapeL := 2, 2, 2
	if !*quick {
		shapeK = 3
	}
	exViolations, total, err := relate.CheckLatticeExhaustive(ctx, shapeP, shapeK, shapeL, workers)
	if err != nil {
		fatal(err)
	}
	claim("Fig 5", "containment lattice holds exhaustively", len(exViolations) == 0,
		fmt.Sprintf("all %d histories of the %d×%d×%d shape", total, shapeP, shapeK, shapeL))

	// Figure 6 / Section 5: Bakery on RCsc — exhaustive soundness +
	// deadlock freedom.
	m, err := program.NewMachine(sim.NewRCsc(2), algorithms.Bakery(2, 1, true))
	if err != nil {
		fatal(err)
	}
	res, err := explore.ExhaustiveCtx(ctx, m, explore.Options{TrackProgress: true})
	if err != nil {
		fatal(err)
	}
	claim("Fig 6", "Bakery on RCsc: mutual exclusion (exhaustive)", res.Sound(),
		fmt.Sprintf("%d states", res.States))
	claim("Fig 6", "Bakery on RCsc: deadlock-free", res.DeadlockFree(), "")

	// Section 5: Bakery on RCpc — violation found and doubly certified.
	m2, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 1, true))
	if err != nil {
		fatal(err)
	}
	res2, err := explore.ExhaustiveCtx(ctx, m2, explore.Options{StopAtFirst: true})
	if err != nil {
		fatal(err)
	}
	ok = len(res2.Violations) > 0
	var certified bool
	if ok {
		_, state, err := res2.Violations[0].Replay()
		if err != nil {
			fatal(err)
		}
		h := state.Mem().Recorder().System()
		rcpc, e1 := model.AllowsCtx(ctx, model.WithWorkers(model.RCpc, workers), h)
		rcsc, e2 := model.AllowsCtx(ctx, model.WithWorkers(model.RCsc, workers), h)
		certified = e1 == nil && e2 == nil && rcpc.Allowed && !rcsc.Allowed
	}
	claim("§5", "Bakery on RCpc: mutual exclusion violated", ok, "")
	claim("§5", "violating history: RCpc-legal and RCsc-illegal", certified, "")

	// Section 5's premise: proper labeling and the SC≡RCsc theorem.
	rep, err := drf.AnalyzeCtx(ctx, algorithms.Bakery(2, 1, true), explore.Options{})
	if err != nil {
		fatal(err)
	}
	claim("§5", "labeled Bakery is properly labeled (DRF)", rep.DRF && rep.Complete, "")
	cmp, err := drf.CompareOutcomesCtx(ctx,
		func() sim.Memory { return sim.NewSC(2) },
		func() sim.Memory { return sim.NewRCsc(2) },
		algorithms.Bakery(2, 1, true), explore.Options{})
	if err != nil {
		fatal(err)
	}
	claim("§5", "properly labeled ⇒ outcomes on RCsc = outcomes on SC", cmp.Equal && cmp.Complete,
		fmt.Sprintf("%d outcomes each", cmp.SizeA))
	cmp2, err := drf.CompareOutcomesCtx(ctx,
		func() sim.Memory { return sim.NewSC(2) },
		func() sim.Memory { return sim.NewRCpc(2) },
		algorithms.Bakery(2, 1, true), explore.Options{})
	if err != nil {
		fatal(err)
	}
	claim("§5", "… but NOT on RCpc (outcome sets differ)", !cmp2.Equal,
		fmt.Sprintf("%d extra RCpc outcomes", len(cmp2.OnlyB)))

	// §3.2/§6: the TSO findings.
	sbrfi, _ := litmus.ByName("SB-rfi")
	paperTSO, _ := model.AllowsCtx(ctx, model.WithWorkers(model.TSO, workers), sbrfi.History)
	axTSO, _ := model.AllowsCtx(ctx, model.WithWorkers(model.TSOAxiomatic, workers), sbrfi.History)
	claim("§6", "paper-TSO ≠ axiomatic TSO (SB+rfi separates)", !paperTSO.Allowed && axTSO.Allowed, "")
	fwd, _ := litmus.ByName("TSOax-not-PC")
	pcV, _ := model.AllowsCtx(ctx, model.WithWorkers(model.PC, workers), fwd.History)
	axV, _ := model.AllowsCtx(ctx, model.WithWorkers(model.TSOAxiomatic, workers), fwd.History)
	claim("§6", "axiomatic TSO ∥ paper-PC (forwarding separates)", !pcV.Allowed && axV.Allowed, "finding of this reproduction")

	fmt.Println()
	if failures > 0 {
		fmt.Printf("%d claims FAILED\n", failures)
		done()
		os.Exit(1)
	}
	fmt.Println("every claim reproduced")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}
