// Litmuslab: author a new litmus test against the framework. We take the
// IRIW shape, vary the final read, and watch the verdict frontier move
// across the model lattice — the workflow a memory-model designer would
// use this library for.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/history"
	"repro/litmus"
	"repro/model"
)

func main() {
	// Two writers, two readers. Variant A lets the readers disagree on
	// the order of the independent writes; variant B makes them agree.
	variants := []struct {
		name, text string
	}{
		{"IRIW-disagree", "p0: w(x)1\np1: w(y)1\np2: r(x)1 r(y)0\np3: r(y)1 r(x)0"},
		{"IRIW-agree", "p0: w(x)1\np1: w(y)1\np2: r(x)1 r(y)0\np3: r(y)0 r(x)1"},
		{"IRIW-one-late", "p0: w(x)1\np1: w(y)1\np2: r(x)1 r(y)1\np3: r(y)1 r(x)0"},
	}

	fmt.Printf("%-15s", "variant")
	for _, m := range model.All() {
		fmt.Printf("%12s", m.Name())
	}
	fmt.Println()
	for _, v := range variants {
		sys, err := history.Parse(v.text)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s", v.name)
		for _, m := range model.All() {
			verdict, err := model.AllowsCtx(context.Background(), m, sys)
			if err != nil {
				fmt.Printf("%12s", "err")
				continue
			}
			fmt.Printf("%12v", verdict.Allowed)
		}
		fmt.Println()
	}

	// The curated corpus ships with the library; run one test from it.
	fmt.Println("\ncorpus test Fig2-WRC (the paper's Figure 2):")
	tc, err := litmus.ByName("Fig2-WRC")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tc.History)
	results, err := litmus.Run(tc, model.All())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		note := ""
		if r.Asserted {
			note = fmt.Sprintf(" (expected %v: match=%v)", r.Expected, r.Match())
		}
		fmt.Printf("  %-11s allowed=%v%s\n", r.Model, r.Allowed, note)
	}
}
