// Command relate regenerates the paper's Figure 5: it classifies the
// litmus corpus, simulator-generated runs and random histories under every
// memory model, prints the separation matrix, and checks the paper's
// containment lattice (SC ⊂ TSO ⊂ {PC, Causal} ⊂ PRAM, PC ∥ Causal) plus
// the extensions' placements against it.
//
// Usage:
//
//	relate [-random N] [-sims N] [-seed S] [-workers N] [-timeout D]
//	       [-budget N] [-trace FILE] [-metrics FILE] [-report FILE]
//	       [-serve ADDR] [-pprof FILE]
//
// With -timeout or -budget, checks cut short land in the matrix's Unknown
// column (never counted as rejections) and a summary line reports them.
// -trace streams sweep and per-check events as JSONL; -metrics snapshots
// the counters on exit. Long sweeps are where -serve earns its keep: it
// serves live Prometheus /metrics, an SSE /trace tap and /runs while the
// sweep runs, and -report captures the per-model verdict and work summary
// for cmd/obsdiff.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/cmd/internal/cliflags"
	"repro/model"
	"repro/relate"
)

func main() {
	nRandom := flag.Int("random", 200, "number of random histories")
	nSims := flag.Int("sims", 5, "random runs per simulator")
	seed := flag.Int64("seed", 1993, "random seed")
	shape := flag.String("shape", "", "exhaustive mode: verify the lattice over ALL histories of shape P,K,L (processors, ops each, locations), e.g. 2,2,2")
	shared := cliflags.Register(flag.CommandLine)
	flag.Parse()
	workers := &shared.Workers

	ctx, done, err := shared.Setup(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "relate:", err)
		os.Exit(1)
	}
	defer done()

	if *shape != "" {
		runExhaustive(ctx, *shape, *workers, done)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	hs := relate.CorpusHistories()
	hs = append(hs, relate.SimHistories(rng, *nSims)...)
	for i := 0; i < *nRandom; i++ {
		hs = append(hs, relate.RandomHistory(rng, relate.GenConfig{}))
		if i%3 == 0 {
			hs = append(hs, relate.RandomLabeledHistory(rng, relate.GenConfig{}))
		}
	}
	fmt.Printf("classifying %d histories (corpus + simulator runs + random) under %d models...\n\n",
		len(hs), len(model.All()))

	mx, err := relate.BuildMatrix(ctx, hs, model.All(), *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relate:", err)
		os.Exit(1)
	}
	fmt.Println("separation matrix — entry (row, col) counts histories allowed by `row` but")
	fmt.Println("rejected by `col`; a zero supports row ⊆ col:")
	fmt.Println()
	fmt.Println(mx)
	if n := totalUnknown(mx); n > 0 {
		fmt.Printf("%d checks cut short by the budget or deadline (excluded from the matrix):\n", n)
		for _, name := range mx.Models {
			if mx.Unknown[name] > 0 {
				fmt.Printf("  %-11s %d\n", name, mx.Unknown[name])
			}
		}
		fmt.Println()
	}

	violations, missing := mx.CheckLattice()
	fmt.Println("paper Figure 5 lattice check:")
	for _, c := range relate.PaperLattice() {
		status := "CONFIRMED"
		if mx.Sep[c.Strong][c.Weak] != 0 {
			status = "VIOLATED"
		} else if mx.Sep[c.Weak][c.Strong] == 0 {
			status = "confirmed (strictness unwitnessed)"
		}
		fmt.Printf("  %-11s ⊂ %-11s %s (witnesses: %d)\n", c.Strong, c.Weak, status, mx.Sep[c.Weak][c.Strong])
	}
	for _, pair := range relate.PaperIncomparabilities() {
		status := "CONFIRMED"
		if mx.Sep[pair[0]][pair[1]] == 0 || mx.Sep[pair[1]][pair[0]] == 0 {
			status = "unwitnessed"
		}
		fmt.Printf("  %-11s ∥ %-11s %s (%d / %d)\n", pair[0], pair[1], status,
			mx.Sep[pair[0]][pair[1]], mx.Sep[pair[1]][pair[0]])
	}
	if len(violations) > 0 {
		fmt.Println("\nLATTICE VIOLATIONS:")
		for _, v := range violations {
			fmt.Println(" ", v)
		}
		done()
		os.Exit(1)
	}
	if len(missing) > 0 {
		fmt.Println("\nmissing witnesses (increase -random / -sims):")
		for _, w := range missing {
			fmt.Println(" ", w)
		}
	}

	fmt.Println("\nempirical Figure 5 (Hasse diagram of strict containments on this corpus):")
	fmt.Println(mx.Hasse())
}

// totalUnknown sums the matrix's Unknown column.
func totalUnknown(mx *relate.Matrix) int {
	n := 0
	for _, name := range mx.Models {
		n += mx.Unknown[name]
	}
	return n
}

// runExhaustive verifies the lattice over every history of a complete
// shape and prints the per-model density table. done flushes the shared
// observability teardown before an error exit.
func runExhaustive(ctx context.Context, shape string, workers int, done func()) {
	var p, k, l int
	if _, err := fmt.Sscanf(shape, "%d,%d,%d", &p, &k, &l); err != nil {
		fmt.Fprintf(os.Stderr, "relate: bad -shape %q: %v\n", shape, err)
		done()
		os.Exit(1)
	}
	fmt.Printf("exhaustively classifying every history of shape procs=%d ops/proc=%d locs=%d...\n", p, k, l)
	counts, unknown, total, err := relate.Density(ctx, p, k, l, workers, model.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "relate:", err)
		done()
		os.Exit(1)
	}
	fmt.Printf("\n%d histories in the shape; allowed per model (density):\n", total)
	for _, m := range model.All() {
		n := counts[m.Name()]
		fmt.Printf("  %-11s %6d  (%.1f%%)", m.Name(), n, 100*float64(n)/float64(total))
		if u := unknown[m.Name()]; u > 0 {
			fmt.Printf("  [%d unknown]", u)
		}
		fmt.Println()
	}
	violations, _, err := relate.CheckLatticeExhaustive(ctx, p, k, l, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relate:", err)
		done()
		os.Exit(1)
	}
	if len(violations) > 0 {
		fmt.Println("\nLATTICE VIOLATIONS:")
		for _, v := range violations {
			fmt.Println(" ", v)
		}
		done()
		os.Exit(1)
	}
	fmt.Printf("\nevery Figure 5 containment holds over all %d histories of this shape\n", total)
}
