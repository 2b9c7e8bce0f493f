// Package repro is a Go reproduction of Kohli, Neiger and Ahamad,
// "A Characterization of Scalable Shared Memories" (GIT-CC-93/04,
// ICPP 1993).
//
// The paper gives a non-operational framework in which a shared-memory
// consistency model is the set of system execution histories it allows,
// characterized by three parameters: the operation set each processor's
// view contains, the mutual-consistency requirements across views, and the
// ordering (program order, partial program order, causal order,
// semi-causality) each view must respect. This module turns the framework
// into executable artifacts:
//
//   - package history — operations, histories, views, legality;
//   - package order — the paper's ordering relations;
//   - package model — the three parameters as data: a model is a
//     model.Spec{Ops, Mutual, Order} value (SC, TSO, PC, PCG, PRAM,
//     Causal, Coherence, RCsc, RCpc, WO, Slow, TSO-ax and both Section 7
//     combinators are fourteen of them) and one checker interprets it;
//   - package litmus — the paper's figures and classic shapes as tests;
//   - package sim — operational machines generating histories;
//   - package program / algorithms / explore — a guest-program DSL,
//     Lamport's Bakery (paper Figure 6) and friends, and an exhaustive
//     state-space explorer reproducing the Section 5 RCsc/RCpc split;
//   - package relate — the empirical Figure 5 containment lattice.
//
// The checkers and the classification sweeps run on a shared
// work-splitting pool (internal/pool) with first-witness cancellation; a
// uniform Workers knob (0 = one per CPU, 1 = the sequential oracle) sizes
// it, and differential tests pin parallel ≡ sequential verdicts. The
// explorer is one sequential depth-first search. See the "Parallel
// checking" section of README.md.
//
// Because membership checking is NP-hard, every check is budgeted and
// cancellable: the one check call, model.AllowsCtx, observes the context's
// deadline and cancellation plus a model.WithBudget work budget, and
// returns a three-valued verdict — allowed, forbidden, or Unknown with a
// typed reason and progress counters — instead of running unbounded.
// explore.ExhaustiveCtx and the relate sweeps report truncation
// reasons and Unknown tallies the same way, worker panics are contained
// as structured *pool.PanicError values, and the CLIs expose -timeout and
// -budget. See the "Bounded checking" section of README.md.
//
// The benchmarks in this directory regenerate each of the paper's figures;
// see EXPERIMENTS.md for the paper-versus-measured record.
package repro
