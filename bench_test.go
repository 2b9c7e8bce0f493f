// Benchmarks regenerating every figure of the paper. None of the paper's
// figures report hardware timings — they are example histories (Figures
// 1–4), a containment diagram (Figure 5) and an algorithm (Figure 6) — so
// the benchmarks measure the cost of *deciding* each figure's claim with
// this repository's machinery, and the accompanying assertions re-verify
// the claims on every benchmark run. EXPERIMENTS.md records the outcomes.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/algorithms"
	"repro/drf"
	"repro/explore"
	"repro/history"
	"repro/internal/incident"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/litmus"
	"repro/model"
	"repro/order"
	"repro/program"
	"repro/relate"
	"repro/sim"
)

// benchFigure measures deciding one corpus history under one model and
// asserts the expected verdict.
func benchFigure(b *testing.B, testName, modelName string, want bool) {
	b.Helper()
	tc, err := litmus.ByName(testName)
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.ByName(modelName)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := m.Allows(context.Background(), tc.History)
		if err != nil {
			b.Fatal(err)
		}
		if v.Allowed != want {
			b.Fatalf("%s under %s: allowed=%v, want %v", testName, modelName, v.Allowed, want)
		}
	}
}

// Figure 1: the store-buffering history — rejected by SC, accepted by TSO.
func BenchmarkFig1(b *testing.B) {
	b.Run("SC-rejects", func(b *testing.B) { benchFigure(b, "Fig1-SB", "SC", false) })
	b.Run("TSO-accepts", func(b *testing.B) { benchFigure(b, "Fig1-SB", "TSO", true) })
}

// Figure 2: accepted by PC, rejected by TSO.
func BenchmarkFig2(b *testing.B) {
	b.Run("PC-accepts", func(b *testing.B) { benchFigure(b, "Fig2-WRC", "PC", true) })
	b.Run("TSO-rejects", func(b *testing.B) { benchFigure(b, "Fig2-WRC", "TSO", false) })
}

// Figure 3: accepted by PRAM, rejected by TSO (and by coherence).
func BenchmarkFig3(b *testing.B) {
	b.Run("PRAM-accepts", func(b *testing.B) { benchFigure(b, "Fig3-PRAM", "PRAM", true) })
	b.Run("TSO-rejects", func(b *testing.B) { benchFigure(b, "Fig3-PRAM", "TSO", false) })
	b.Run("PC-rejects", func(b *testing.B) { benchFigure(b, "Fig3-PRAM", "PC", false) })
}

// Figure 4: accepted by causal memory, rejected by TSO.
func BenchmarkFig4(b *testing.B) {
	b.Run("Causal-accepts", func(b *testing.B) { benchFigure(b, "Fig4-Causal", "Causal", true) })
	b.Run("TSO-rejects", func(b *testing.B) { benchFigure(b, "Fig4-Causal", "TSO", false) })
}

// Figure 5: building the empirical containment matrix over the corpus plus
// random and simulator-generated histories, and checking the lattice.
func BenchmarkFig5Matrix(b *testing.B) {
	rng := rand.New(rand.NewSource(1993))
	hs := relate.CorpusHistories()
	hs = append(hs, relate.SimHistories(rng, 2)...)
	for i := 0; i < 40; i++ {
		hs = append(hs, relate.RandomHistory(rng, relate.GenConfig{}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mx, err := relate.BuildMatrix(context.Background(), hs, model.All(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if v, _ := mx.CheckLattice(); len(v) != 0 {
			b.Fatalf("lattice violations: %v", v)
		}
	}
}

// benchWorkerCounts returns the pool sizes the parallel benchmarks compare:
// the sequential oracle and one worker per CPU (when they differ).
func benchWorkerCounts() []int {
	if runtime.GOMAXPROCS(0) > 1 {
		return []int{1, runtime.GOMAXPROCS(0)}
	}
	return []int{1}
}

// Figure 6 / Section 5: the Bakery experiment. RCsc — exhaustive proof of
// mutual exclusion over the operational state space.
func BenchmarkBakeryRCsc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := program.NewMachine(sim.NewRCsc(2), algorithms.Bakery(2, 1, true))
		if err != nil {
			b.Fatal(err)
		}
		res, err := explore.Exhaustive(m, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Sound() {
			b.Fatalf("RCsc bakery unsound: %d violations", len(res.Violations))
		}
	}
}

// Figure 6 / Section 5: RCpc — time to find the mutual-exclusion violation
// and certify it with both checkers, at each of the checkers' pool sizes.
func BenchmarkBakeryRCpc(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 1, true))
				if err != nil {
					b.Fatal(err)
				}
				res, err := explore.Exhaustive(m, explore.Options{StopAtFirst: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) == 0 {
					b.Fatal("no RCpc violation found")
				}
				h := res.Violations[0].History
				rcpc, err := model.WithWorkers(model.RCpc, w).Allows(context.Background(), h)
				if err != nil || !rcpc.Allowed {
					b.Fatalf("violating history not RCpc: %v", err)
				}
				rcsc, err := model.WithWorkers(model.RCsc, w).Allows(context.Background(), h)
				if err != nil || rcsc.Allowed {
					b.Fatalf("violating history accepted by RCsc (err=%v)", err)
				}
			}
		})
	}
}

// BenchmarkBakeryRCpcComplete runs the bakery-explore workload's
// exploration — all of Bakery(2,2) on RCpc, no checker — so ns/op, B/op and
// allocs/op measure explore, program and sim alone.
func BenchmarkBakeryRCpcComplete(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 2, true))
		if err != nil {
			b.Fatal(err)
		}
		res, err := explore.Exhaustive(m, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete || res.States != 84448 || len(res.Violations) != 930 {
			b.Fatalf("complete=%v states=%d violations=%d, want complete 84448/930",
				res.Complete, res.States, len(res.Violations))
		}
	}
}

// BenchmarkBakeryPaperHistory measures checking the paper's own 12-op
// Section 5 violation history under both RC models.
func BenchmarkBakeryPaperHistory(b *testing.B) {
	tc, err := litmus.ByName("Bakery-violation")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("RCpc-accepts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := model.RCpc.Allows(context.Background(), tc.History)
			if err != nil || !v.Allowed {
				b.Fatal(err)
			}
		}
	})
	b.Run("RCsc-rejects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := model.RCsc.Allows(context.Background(), tc.History)
			if err != nil || v.Allowed {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations and scaling ---

// hardProblem is an instance on which memoization matters: two processors
// with interleavable independent writes and a final unsatisfiable read.
func hardProblem(ops int) (*history.System, *order.Relation) {
	bld := history.NewBuilder(2)
	for i := 0; i < ops; i++ {
		p := history.Proc(i % 2)
		bld.Write(p, history.Loc(fmt.Sprintf("l%d", i)), 1)
	}
	bld.Read(0, "zz", 9) // never satisfiable
	s := bld.System()
	return s, order.Program(s)
}

// BenchmarkSolverMemoization is the ablation for the solver's failed-state
// cache: identical problems with and without memoization.
func BenchmarkSolverMemoization(b *testing.B) {
	// Two interleavable 9-write chains: the memoized search visits one
	// state per (i, j) prefix pair (≈100 states); the unmemoized search
	// walks every interleaving (C(18,9) ≈ 4.9e4 paths).
	s, po := hardProblem(18)
	prob := search.Problem{Sys: s, Ops: s.Ops(), Prec: po}
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, _ := search.FindView(prob); ok {
				b.Fatal("unsatisfiable problem solved")
			}
		}
	})
	b.Run("unmemoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, _ := search.FindViewUnmemoized(prob); ok {
				b.Fatal("unsatisfiable problem solved")
			}
		}
	})
}

// BenchmarkCheckerScaling shows decision cost versus history size for the
// SC checker on serializable histories.
func BenchmarkCheckerScaling(b *testing.B) {
	for _, n := range []int{8, 16, 24, 32} {
		bld := history.NewBuilder(2)
		for i := 0; i < n/2; i++ {
			bld.Write(0, history.Loc(fmt.Sprintf("a%d", i%3)), history.Value(i+1))
			bld.Read(1, history.Loc(fmt.Sprintf("a%d", i%3)), 0)
		}
		// Make the reads satisfiable: read each location's initial value
		// only before any write in some serialization — trivially
		// placeable first.
		s := bld.System()
		b.Run(fmt.Sprintf("ops=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v, err := (model.SC).Allows(context.Background(), s); err != nil || !v.Allowed {
					b.Fatalf("SC rejected a serializable history: %v", err)
				}
			}
		})
	}
}

// BenchmarkSimulators measures raw simulator throughput under RandomRun.
func BenchmarkSimulators(b *testing.B) {
	for _, mk := range []struct {
		name string
		f    func(int) sim.Memory
	}{
		{"SC", func(n int) sim.Memory { return sim.NewSC(n) }},
		{"TSO", func(n int) sim.Memory { return sim.NewTSO(n) }},
		{"PRAM", func(n int) sim.Memory { return sim.NewPRAM(n) }},
		{"PCG", func(n int) sim.Memory { return sim.NewPCG(n) }},
		{"Causal", func(n int) sim.Memory { return sim.NewCausal(n) }},
		{"RCsc", func(n int) sim.Memory { return sim.NewRCsc(n) }},
		{"RCpc", func(n int) sim.Memory { return sim.NewRCpc(n) }},
		{"Slow", func(n int) sim.Memory { return sim.NewSlow(n) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cfg := sim.RandomRunConfig{Ops: 12, MaxWrites: 6, PInternal: 0.4,
				DataLocs: []history.Loc{"x", "y"}}
			if mk.name == "RCsc" || mk.name == "RCpc" {
				cfg.DataLocs = []history.Loc{"x"}
				cfg.SyncLocs = []history.Loc{"s"}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mem := mk.f(2)
				sim.RandomRun(mem, rng, cfg)
			}
		})
	}
}

// BenchmarkCrossValidation measures the full generate-then-verify loop the
// repository's soundness rests on: one simulator run plus one checker
// decision.
func BenchmarkCrossValidation(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cfg := sim.RandomRunConfig{Ops: 10, MaxWrites: 5, PInternal: 0.4,
		DataLocs: []history.Loc{"x", "y"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mem := sim.NewCausal(3)
		h := sim.RandomRun(mem, rng, cfg)
		v, err := model.Causal.Allows(context.Background(), h)
		if err != nil || !v.Allowed {
			b.Fatalf("causal run rejected: %v", err)
		}
	}
}

// BenchmarkLitmusCorpus measures running the whole corpus under all models
// (the cmd/litmus workload).
func BenchmarkLitmusCorpus(b *testing.B) {
	ms := model.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := litmus.RunCorpus(ms)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if !r.Match() {
				b.Fatalf("corpus mismatch: %+v", r)
			}
		}
	}
}

// BenchmarkExtensions measures the extension checkers on their separating
// corpus tests: the axiomatic TSO on the forwarding histories and weak
// ordering on its fence test.
func BenchmarkExtensions(b *testing.B) {
	b.Run("TSOax-SBrfi-accepts", func(b *testing.B) { benchFigure(b, "SB-rfi", "TSO-ax", true) })
	b.Run("TSOax-notPC-accepts", func(b *testing.B) { benchFigure(b, "TSOax-not-PC", "TSO-ax", true) })
	b.Run("PC-rejects-forwarding", func(b *testing.B) { benchFigure(b, "TSOax-not-PC", "PC", false) })
	b.Run("WO-fence-rejects", func(b *testing.B) { benchFigure(b, "WO-release-fence", "WO", false) })
	b.Run("RCsc-fence-accepts", func(b *testing.B) { benchFigure(b, "WO-release-fence", "RCsc", true) })
}

// BenchmarkDensityWorkers is the parallelization ablation: the exhaustive
// 2x2x2 classification with 1, 2 and 4 workers.
func BenchmarkDensityWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, total, err := relate.Density(context.Background(), 2, 2, 2, w, model.All()); err != nil || total != 792 {
					b.Fatalf("total=%d err=%v", total, err)
				}
			}
		})
	}
}

// BenchmarkDRFTheorem measures the full properly-labeled pipeline: DRF
// analysis of the labeled Bakery program plus the SC-versus-RCsc outcome
// comparison (the Gibbons–Merritt–Gharachorloo instance of Section 5).
func BenchmarkDRFTheorem(b *testing.B) {
	progs := algorithms.Bakery(2, 1, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := drf.Analyze(progs, explore.Options{})
		if err != nil || !rep.DRF {
			b.Fatalf("DRF=%v err=%v", rep.DRF, err)
		}
		cmp, err := drf.CompareOutcomes(
			func() sim.Memory { return sim.NewSC(2) },
			func() sim.Memory { return sim.NewRCsc(2) },
			progs, explore.Options{})
		if err != nil || !cmp.Equal {
			b.Fatalf("equal=%v err=%v", cmp.Equal, err)
		}
	}
}

// overheadCase is one corpus-scale decision the overhead benchmarks time
// and TestBenchmarkAllocs holds to plain Allows's allocation count.
type overheadCase struct {
	test, model string
	want        bool
}

var overheadCases = []overheadCase{
	{"Fig1-SB", "TSO", true},
	{"Fig2-WRC", "PC", true},
	{"Bakery-violation", "RCsc", false},
}

func (c overheadCase) load(tb testing.TB) (litmus.Test, model.Model) {
	tb.Helper()
	tc, err := litmus.ByName(c.test)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := model.ByName(c.model)
	if err != nil {
		tb.Fatal(err)
	}
	return tc, m
}

// BenchmarkBudgetOverhead measures the cost of metered checking: the same
// corpus-scale decisions open-loop (Allows, nil meter) and under a generous
// budget plus deadline (AllowsCtx) that never trips. The delta is the price
// of the accounting itself — the acceptance bar is ≤5%; TestBenchmarkAllocs
// holds the budgeted check to at most budgetAllocs more allocations.
func BenchmarkBudgetOverhead(b *testing.B) {
	for _, c := range overheadCases {
		tc, m := c.load(b)
		b.Run(c.test+"/"+c.model+"/open-loop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := m.Allows(context.Background(), tc.History)
				if err != nil || v.Allowed != c.want {
					b.Fatalf("verdict %+v err %v", v, err)
				}
			}
		})
		b.Run(c.test+"/"+c.model+"/budgeted", func(b *testing.B) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			defer cancel()
			ctx = model.WithBudget(ctx, model.DefaultBudget())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := model.AllowsCtx(ctx, m, tc.History)
				if err != nil || !v.Decided() || v.Allowed != c.want {
					b.Fatalf("verdict %+v err %v", v, err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer on the
// same corpus-scale decisions as BenchmarkBudgetOverhead: open-loop (no
// sink, no registry — the nil-Probe fast path), metrics-only (a live
// registry, counters flushed per search), fully traced (registry plus a
// JSONL sink on a discarding writer), and recorded (registry plus the
// flight recorder as the sink — the always-on incident path with no
// trigger firing, which must price like any other sink: one mutex
// acquire and an append per event). The open-loop column must stay at the
// un-instrumented baseline — the acceptance bar for the disabled path is
// ≤5% versus BenchmarkBudgetOverhead's open-loop. EXPERIMENTS.md records
// one set of medians; TestBenchmarkAllocs holds the open-loop column to
// plain Allows's allocation count.
func BenchmarkObsOverhead(b *testing.B) {
	for _, c := range overheadCases {
		tc, m := c.load(b)
		run := func(b *testing.B, ctx context.Context) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := model.AllowsCtx(ctx, m, tc.History)
				if err != nil || !v.Decided() || v.Allowed != c.want {
					b.Fatalf("verdict %+v err %v", v, err)
				}
			}
		}
		b.Run(c.test+"/"+c.model+"/open-loop", func(b *testing.B) {
			run(b, context.Background())
		})
		b.Run(c.test+"/"+c.model+"/metrics", func(b *testing.B) {
			run(b, obs.WithRegistry(context.Background(), obs.NewRegistry()))
		})
		b.Run(c.test+"/"+c.model+"/traced", func(b *testing.B) {
			ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
			run(b, obs.WithSink(ctx, obs.NewJSONL(io.Discard)))
		})
		b.Run(c.test+"/"+c.model+"/recorded", func(b *testing.B) {
			reg := obs.NewRegistry()
			spool, err := incident.NewSpool("", 4, reg)
			if err != nil {
				b.Fatal(err)
			}
			rec := incident.NewRecorder(incident.Config{}, spool, reg)
			ctx := obs.WithRegistry(context.Background(), reg)
			run(b, obs.WithSink(ctx, rec))
		})
	}
}

// fastPathCase is one membership question BenchmarkFastPath times under
// both routes and TestBenchmarkAllocs holds to allocation ceilings:
// allocs per check as measured plus 10%, without and with -race (whose
// sync.Pool drops a share of the solvers put back).
type fastPathCase struct {
	name               string
	model              model.Model
	hist               *history.System
	maxAllocs, maxRace routeAllocs
}

// routeAllocs holds one count per route.
type routeAllocs struct{ auto, enumerate int }

func (r routeAllocs) of(route model.RouteMode) int {
	if route == model.RouteEnumerate {
		return r.enumerate
	}
	return r.auto
}

// fastPathRoutes are the routes each fast-path case runs under: "auto"
// (the polynomial fast paths and enumeration pre-passes) and "enumerate"
// (the pure enumeration oracle).
var fastPathRoutes = []model.RouteMode{model.RouteAuto, model.RouteEnumerate}

// fastPathCases are the checks the routed fast paths accelerate: the
// per-view models (SC, PRAM, causal, coherence) where saturation plus
// greedy construction replaces search, and the enumerating models (TSO,
// PC) where the forced-edge pre-pass shrinks the candidate space. Corpus
// figures keep the workload honest; the serializable and
// simulator-generated cases show the polynomial paths at sizes where
// enumeration grows.
func fastPathCases(tb testing.TB) []fastPathCase {
	tb.Helper()
	corpus := func(test string) *history.System {
		tc, err := litmus.ByName(test)
		if err != nil {
			tb.Fatal(err)
		}
		return tc.History
	}

	// A serializable 24-operation history: the greedy construction decides
	// it in one pass where the solver searches.
	bld := history.NewBuilder(2)
	for i := 0; i < 12; i++ {
		bld.Write(0, history.Loc(fmt.Sprintf("a%d", i%3)), history.Value(i+1))
		bld.Read(1, history.Loc(fmt.Sprintf("a%d", i%3)), 0)
	}

	// A simulator-generated causal history: machine-made shapes rather than
	// hand-picked litmus figures.
	rng := rand.New(rand.NewSource(7))
	simRun := sim.RandomRun(sim.NewCausal(3), rng, sim.RandomRunConfig{
		Ops: 12, MaxWrites: 6, PInternal: 0.4, DataLocs: []history.Loc{"x", "y"}})

	// Many concurrent writers: the TSO write-order enumeration is
	// factorial in the writes; the pre-pass forces most of the order.
	manyWrites, err := history.Parse("p0: w(x)1 w(y)1 w(z)1\np1: w(x)2 w(y)2 w(z)2\np2: r(x)2 r(y)1 r(z)2")
	if err != nil {
		tb.Fatal(err)
	}

	return []fastPathCase{
		{"SC/Fig1-SB", model.SC, corpus("Fig1-SB"), routeAllocs{16, 8}, routeAllocs{16, 10}},
		{"PRAM/Fig3-PRAM", model.PRAM, corpus("Fig3-PRAM"), routeAllocs{17, 13}, routeAllocs{17, 17}},
		{"Causal/Fig4-Causal", model.Causal, corpus("Fig4-Causal"), routeAllocs{31, 17}, routeAllocs{31, 24}},
		{"Coherence/CoRR", model.Coherence, corpus("CoRR-single-writer"), routeAllocs{20, 13}, routeAllocs{20, 16}},
		{"TSO/Fig2-WRC", model.TSO, corpus("Fig2-WRC"), routeAllocs{28, 31}, routeAllocs{28, 43}},
		{"PC/IRIW", model.PC, corpus("IRIW"), routeAllocs{70, 70}, routeAllocs{79, 80}},
		{"SC/serializable-24", model.SC, bld.System(), routeAllocs{15, 13}, routeAllocs{15, 18}},
		{"Causal/sim-12", model.Causal, simRun, routeAllocs{24, 17}, routeAllocs{24, 26}},
		{"TSO/many-writes", model.TSO, manyWrites, routeAllocs{41, 31}, routeAllocs{48, 38}},
	}
}

// BenchmarkFastPath compares the routed fast paths against the enumeration
// oracle on fastPathCases. The reference verdict is computed once from the
// oracle and asserted on every iteration of both routes, so the benchmark
// doubles as a differential check; TestBenchmarkAllocs gates the allocs/op
// it reports.
func BenchmarkFastPath(b *testing.B) {
	for _, c := range fastPathCases(b) {
		ref, err := model.AllowsCtx(model.WithRoute(context.Background(), model.RouteEnumerate), c.model, c.hist)
		if err != nil {
			b.Fatal(err)
		}
		for _, route := range fastPathRoutes {
			ctx := model.WithRoute(context.Background(), route)
			b.Run(c.name+"/"+route.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v, err := model.AllowsCtx(ctx, c.model, c.hist)
					if err != nil {
						b.Fatal(err)
					}
					if v.Allowed != ref.Allowed {
						b.Fatalf("%s under %s route %s: allowed=%v, oracle says %v",
							c.name, c.model.Name(), route, v.Allowed, ref.Allowed)
					}
				}
			})
		}
	}
}

// BenchmarkCoherenceEnumeration shows PC's checking cost versus writes per
// location (coherence candidates grow factorially with concurrent writers),
// at each pool size.
func BenchmarkCoherenceEnumeration(b *testing.B) {
	for _, writers := range []int{2, 3, 4, 5} {
		bld := history.NewBuilder(writers + 1)
		for w := 0; w < writers; w++ {
			bld.Write(history.Proc(w), "x", history.Value(w+1))
		}
		bld.Read(history.Proc(writers), "x", history.Value(writers))
		s := bld.System()
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("writers=%d/workers=%d", writers, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if v, err := model.WithWorkers(model.PC, w).Allows(context.Background(), s); err != nil || !v.Allowed {
						b.Fatalf("PC verdict: %+v %v", v, err)
					}
				}
			})
		}
	}
}
