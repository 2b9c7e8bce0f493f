// Command drfcheck analyzes a built-in synchronization algorithm for
// proper labeling (data-race freedom over every sequentially consistent
// execution) and then tests the Gibbons–Merritt–Gharachorloo consequence
// the paper's Section 5 invokes: a properly labeled program's observable
// outcomes on a release-consistent memory with SC synchronization (RCsc)
// coincide with its outcomes on sequentially consistent memory — while on
// RCpc they may not.
//
// Usage:
//
//	drfcheck [-algorithm bakery|peterson|dekker|fast|szymanski] [-n 2]
//	         [-labeled] [-timeout D] [-budget N]
//	         [-trace FILE] [-metrics FILE] [-report FILE] [-serve ADDR]
//	         [-pprof FILE]
//
// -timeout bounds the explorations by wall clock; a truncated analysis
// reports exhaustive=false and its DRF/equality answers cover only the
// executions reached. -trace and -metrics stream exploration events and
// counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/algorithms"
	"repro/cmd/internal/cliflags"
	"repro/drf"
	"repro/explore"
	"repro/program"
	"repro/sim"
)

func main() {
	algo := flag.String("algorithm", "bakery", "bakery, peterson, dekker, fast or szymanski")
	n := flag.Int("n", 2, "processors (bakery only; peterson/dekker are 2)")
	labeled := flag.Bool("labeled", true, "label the synchronization accesses")
	shared := cliflags.Register(flag.CommandLine)
	flag.Parse()

	ctx, done, err := shared.Setup(context.Background())
	if err != nil {
		fatal(err)
	}
	defer done()

	var progs [][]program.Stmt
	switch *algo {
	case "bakery":
		progs = algorithms.Bakery(*n, 1, *labeled)
	case "peterson":
		progs = algorithms.Peterson(1, *labeled)
		*n = 2
	case "dekker":
		progs = algorithms.Dekker(1, *labeled)
		*n = 2
	case "fast":
		progs = algorithms.LamportFast(*labeled)
		*n = 2
	case "szymanski":
		progs = algorithms.Szymanski(*n, *labeled)
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	fmt.Printf("algorithm=%s n=%d labeled=%v\n\n", *algo, *n, *labeled)

	rep, err := drf.AnalyzeCtx(ctx, progs, explore.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("proper labeling: DRF=%v over %d SC executions (exhaustive=%v)\n",
		rep.DRF, rep.Executions, rep.Complete)
	for _, r := range rep.Races {
		fmt.Println("  ", r)
	}

	nn := *n
	compare := func(name string, mk func() sim.Memory) {
		cmp, err := drf.CompareOutcomesCtx(ctx,
			func() sim.Memory { return sim.NewSC(nn) }, mk, progs, explore.Options{})
		if err != nil {
			fatal(err)
		}
		verdict := "EQUAL"
		if !cmp.Equal {
			verdict = fmt.Sprintf("DIFFER (%d outcomes only on %s, %d only on SC)",
				len(cmp.OnlyB), name, len(cmp.OnlyA))
		}
		if !cmp.Complete {
			verdict += " [truncated]"
		}
		fmt.Printf("outcomes SC vs %-5s %s (|SC|=%d |%s|=%d)\n", name+":", verdict, cmp.SizeA, name, cmp.SizeB)
	}
	fmt.Println()
	compare("RCsc", func() sim.Memory { return sim.NewRCsc(nn) })
	compare("RCpc", func() sim.Memory { return sim.NewRCpc(nn) })

	if rep.DRF {
		fmt.Println("\nproperly labeled: the theorem predicts SC ≡ RCsc (and Section 5")
		fmt.Println("shows RCpc may still differ — that is the paper's point).")
	} else {
		fmt.Println("\nnot properly labeled: no SC-equivalence guarantee applies.")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drfcheck:", err)
	os.Exit(1)
}
