package model_test

import (
	"context"
	"fmt"

	"repro/history"
	"repro/model"
)

func ExampleSC_Allows() {
	// The paper's Figure 1: not sequentially consistent.
	sys := history.MustParse("p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	v, err := model.SC.Allows(context.Background(), sys)
	if err != nil {
		panic(err)
	}
	fmt.Println("SC allows Figure 1:", v.Allowed)
	// Output:
	// SC allows Figure 1: false
}

func ExampleTSO_Allows() {
	// Figure 1 is TSO; the witness views are of the same form the paper
	// constructs by hand (p1's read bypasses the buffered writes; the
	// write order is shared by both views).
	sys := history.MustParse("p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	v, err := model.TSO.Allows(context.Background(), sys)
	if err != nil {
		panic(err)
	}
	fmt.Println("allowed:", v.Allowed)
	fmt.Println("S_p0:", v.Witness.Views[0].String(sys))
	fmt.Println("S_p1:", v.Witness.Views[1].String(sys))
	fmt.Println("write order:", v.Witness.WriteOrder.String(sys))
	// Output:
	// allowed: true
	// S_p0: w0(x)1 r0(y)0 w1(y)1
	// S_p1: r1(x)0 w0(x)1 w1(y)1
	// write order: w0(x)1 w1(y)1
}

func ExampleRCpc_Allows() {
	// The paper's Section 5 Bakery violation is a legal RCpc history and
	// not an RCsc one.
	violation := history.MustParse(
		"p0: W(c0)1 R(n1)0 W(n0)1 W(c0)2 R(c1)0 R(n1)0\n" +
			"p1: W(c1)1 R(n0)0 W(n1)1 W(c1)2 R(c0)0 R(n0)0")
	rcpc, _ := model.RCpc.Allows(context.Background(), violation)
	rcsc, _ := model.RCsc.Allows(context.Background(), violation)
	fmt.Println("RCpc:", rcpc.Allowed, " RCsc:", rcsc.Allowed)
	// Output:
	// RCpc: true  RCsc: false
}

func ExampleSpec() {
	// A new memory from the framework's three parameters (paper §7):
	// PRAM's views and ordering, plus coherence as mutual consistency.
	coherentPRAM := model.Spec{
		Title:  "PRAM+coherence",
		Ops:    model.OpsWrites,
		Mutual: model.MutualCoherence,
		Order:  model.OrderPO,
	}
	// The two processors observe x's writes in opposite orders.
	sys := history.MustParse("p0: w(x)1 r(x)1 r(x)2\np1: w(x)2 r(x)2 r(x)1")
	ctx := context.Background()
	pram, _ := model.AllowsCtx(ctx, model.PRAM, sys)
	coh, _ := model.AllowsCtx(ctx, coherentPRAM, sys)
	fmt.Println("PRAM:", pram.Allowed, " PRAM+coherence:", coh.Allowed)
	fmt.Println(model.Procedure(coherentPRAM))
	// Output:
	// PRAM: true  PRAM+coherence: false
	// forced-edge pre-pass + coherence enumeration
}

func ExampleVerifyWitness() {
	sys := history.MustParse("p0: w(x)1\np1: r(x)1")
	v, _ := model.Causal.Allows(context.Background(), sys)
	fmt.Println("verified:", model.VerifyWitness(model.Causal, sys, v.Witness) == nil)
	// Output:
	// verified: true
}

func ExampleByName() {
	m, err := model.ByName("PC")
	if err != nil {
		panic(err)
	}
	sys := history.MustParse("p0: w(x)1\np1: r(x)1 w(y)1\np2: r(y)1 r(x)0")
	v, _ := m.Allows(context.Background(), sys)
	fmt.Printf("%s allows Figure 2: %v\n", m.Name(), v.Allowed)
	// Output:
	// PC allows Figure 2: true
}
