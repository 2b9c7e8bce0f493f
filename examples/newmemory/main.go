// Newmemory: the paper's Section 7 points out that the framework is a
// design space — vary the three parameters (operation set, mutual
// consistency, ordering) and new memories fall out. This example defines a
// candidate memory the paper never names — causal memory strengthened with
// TSO's mutual-consistency requirement (a single agreed total order over
// ALL writes) — declares it as one model.Spec of those three parameters,
// and locates it in the Figure 5 lattice empirically.
//
// The punchline is a collapse: the "new" memory coincides with SC on every
// history tested, and provably in general — once all views respect full
// program order and share one write order, each processor's reads slot
// into gaps of that write order and the per-processor views merge into a
// single legal serialization. TSO stays strictly weaker than SC only
// because its partial program order lets reads bypass writes. The
// framework makes such equivalences cheap to discover before attempting a
// proof.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/litmus"
	"repro/model"
	"repro/relate"
)

// GlobalWriteCausal is causal memory plus TSO-style mutual consistency:
// processor views (own operations + others' writes) must respect the
// causal order →co AND agree on one total order of all writes. By
// construction it is at least as strong as both TSO (co ⊇ ppo) and Causal;
// the SB litmus shows it is strictly stronger than TSO.
var GlobalWriteCausal = model.Spec{
	Title:  "GWCausal",
	Ops:    model.OpsWrites,
	Mutual: model.MutualWriteOrder,
	Order:  model.OrderCausal,
}

func main() {
	ctx := context.Background()
	models := append(model.All(), GlobalWriteCausal)

	// Where does it land on the corpus?
	fmt.Println("verdicts on the paper's figures:")
	for _, name := range []string{"Fig1-SB", "Fig2-WRC", "Fig3-PRAM", "Fig4-Causal", "IRIW"} {
		tc, err := litmus.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		v, err := model.AllowsCtx(ctx, GlobalWriteCausal, tc.History)
		if err != nil {
			log.Fatal(err)
		}
		sc, _ := model.AllowsCtx(ctx, model.SC, tc.History)
		tso, _ := model.AllowsCtx(ctx, model.TSO, tc.History)
		causal, _ := model.AllowsCtx(ctx, model.Causal, tc.History)
		fmt.Printf("  %-12s GWCausal=%-5v (SC=%v TSO=%v Causal=%v)\n",
			name, v.Allowed, sc.Allowed, tso.Allowed, causal.Allowed)
	}

	// Empirical lattice placement over corpus + random histories.
	rng := rand.New(rand.NewSource(7))
	hs := relate.CorpusHistories()
	for i := 0; i < 120; i++ {
		hs = append(hs, relate.RandomHistory(rng, relate.GenConfig{}))
	}
	mx, err := relate.BuildMatrix(ctx, hs, models, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nempirical placement (0 in the row supports containment):")
	for _, other := range []string{"SC", "TSO", "Causal", "PRAM"} {
		fmt.Printf("  GWCausal ⊆ %-7s: %v (sep %d / reverse %d)\n",
			other, mx.StrongerEq("GWCausal", other), mx.Sep["GWCausal"][other], mx.Sep[other]["GWCausal"])
	}
	if mx.Sep["GWCausal"]["SC"] == 0 && mx.Sep["SC"]["GWCausal"] == 0 {
		fmt.Println("\nGWCausal and SC agree on every history tested: adding TSO's global write")
		fmt.Println("order to causal memory collapses it to sequential consistency. TSO itself")
		fmt.Println("escapes the collapse only through ppo's write→read bypass (paper §7:")
		fmt.Println("the framework makes exploring new parameter combinations cheap).")
	}
}
