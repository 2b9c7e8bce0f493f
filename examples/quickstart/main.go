// Quickstart: build the paper's Figure 1 history, ask which memory models
// allow it, and print the certifying processor views — the executable
// version of the paper's Section 3.2 walk-through.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/history"
	"repro/model"
)

func main() {
	// Figure 1: both processors write, then read the other's location
	// as still 0. Histories parse in the paper's notation.
	sys, err := history.Parse(`
p: w(x)1 r(y)0
q: w(y)1 r(x)0`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 1 history:\n%s\n", sys)

	// Sequential consistency rejects it: no single serialization of all
	// four operations respects both program orders and legality.
	sc, err := model.AllowsCtx(context.Background(), model.SC, sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SC  allows it: %v\n", sc.Allowed)

	// TSO accepts: reads may bypass buffered writes. The witness views
	// are exactly the ones the paper constructs:
	//   S_{p+w}: r_p(y)0 w_p(x)1 w_q(y)1
	//   S_{q+w}: r_q(x)0 w_p(x)1 w_q(y)1
	tso, err := model.AllowsCtx(context.Background(), model.TSO, sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TSO allows it: %v\n", tso.Allowed)
	for p := 0; p < sys.NumProcs(); p++ {
		fmt.Printf("  S_p%d: %s\n", p, tso.Witness.Views[history.Proc(p)].String(sys))
	}
	fmt.Printf("  agreed write order: %s\n\n", tso.Witness.WriteOrder.String(sys))

	// The same question under every model in the repository.
	fmt.Println("verdicts under all models:")
	for _, m := range model.All() {
		v, err := model.AllowsCtx(context.Background(), m, sys)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11s %v\n", m.Name(), v.Allowed)
	}
}
