// Mutex: the paper's Section 5 experiment as a library user would run it.
// Lamport's Bakery algorithm (Figure 6), with its synchronization accesses
// labeled, is model-checked on simulated RCsc and RCpc memories; the RCpc
// violation's history is then re-judged by the non-operational checkers.
// Peterson's algorithm gets the same treatment.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/algorithms"
	"repro/explore"
	"repro/model"
	"repro/program"
	"repro/sim"
)

func main() {
	fmt.Println("== Bakery (n=2, all synchronization accesses labeled) ==")
	runMutex("Bakery", func(mem sim.Memory) (*program.Machine, error) {
		return program.NewMachine(mem, algorithms.Bakery(2, 1, true))
	})

	fmt.Println("\n== Peterson (labeled) ==")
	runMutex("Peterson", func(mem sim.Memory) (*program.Machine, error) {
		return program.NewMachine(mem, algorithms.Peterson(1, true))
	})
}

func runMutex(name string, mk func(sim.Memory) (*program.Machine, error)) {
	// RCsc: exhaustive exploration proves mutual exclusion.
	m, err := mk(sim.NewRCsc(2))
	if err != nil {
		log.Fatal(err)
	}
	res, err := explore.Exhaustive(m, explore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RCsc: %d states explored, violations: %d, exhaustive: %v\n",
		res.States, len(res.Violations), res.Complete)

	// RCpc: the explorer finds two processors in the critical section.
	m2, err := mk(sim.NewRCpc(2))
	if err != nil {
		log.Fatal(err)
	}
	res2, err := explore.Exhaustive(m2, explore.Options{StopAtFirst: true})
	if err != nil {
		log.Fatal(err)
	}
	if len(res2.Violations) == 0 {
		fmt.Println("RCpc: no violation found (unexpected!)")
		return
	}
	trace, state, err := res2.Violations[0].Replay()
	if err != nil {
		log.Fatal(err)
	}
	h := state.Mem().Recorder().System()
	fmt.Printf("RCpc: VIOLATION after %d scheduling choices\n", len(trace))
	fmt.Printf("violating history:\n%s", h)

	// Close the loop with the paper's framework: the operationally
	// produced history is a legal RCpc history and not an RCsc one.
	rcpc, err := model.AllowsCtx(context.Background(), model.RCpc, h)
	if err != nil {
		log.Fatal(err)
	}
	rcsc, err := model.AllowsCtx(context.Background(), model.RCsc, h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkers: RCpc allows=%v, RCsc allows=%v — %s distinguishes RCsc from RCpc\n",
		rcpc.Allowed, rcsc.Allowed, name)
}
