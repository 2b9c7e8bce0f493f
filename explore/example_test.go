package explore_test

import (
	"context"
	"fmt"

	"repro/algorithms"
	"repro/explore"
	"repro/model"
	"repro/program"
	"repro/sim"
)

// Example reproduces the paper's Section 5 in a dozen lines: Lamport's
// Bakery algorithm, fully labeled, is exhaustively model-checked on both
// release-consistent memories, and the RCpc violation's history is judged
// by the non-operational checkers.
func Example() {
	// RCsc: exhaustive proof of mutual exclusion.
	m, err := program.NewMachine(sim.NewRCsc(2), algorithms.Bakery(2, 1, true))
	if err != nil {
		panic(err)
	}
	res, err := explore.Exhaustive(m, explore.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("RCsc sound:", res.Sound())

	// RCpc: the explorer finds both processors in the critical section.
	m2, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 1, true))
	if err != nil {
		panic(err)
	}
	res2, err := explore.Exhaustive(m2, explore.Options{StopAtFirst: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("RCpc violated:", len(res2.Violations) > 0)

	_, state, err := res2.Violations[0].Replay()
	if err != nil {
		panic(err)
	}
	h := state.Mem().Recorder().System()
	rcpc, _ := model.RCpc.Allows(context.Background(), h)
	rcsc, _ := model.RCsc.Allows(context.Background(), h)
	fmt.Println("violating history: RCpc", rcpc.Allowed, "/ RCsc", rcsc.Allowed)
	// Output:
	// RCsc sound: true
	// RCpc violated: true
	// violating history: RCpc true / RCsc false
}

func ExampleReplay() {
	m, _ := program.NewMachine(sim.NewPRAM(2), algorithms.Bakery(2, 1, false))
	res, err := explore.Exhaustive(m, explore.Options{StopAtFirst: true})
	if err != nil || len(res.Violations) == 0 {
		panic("no violation")
	}
	trace, _, err := res.Violations[0].Replay()
	if err != nil {
		panic(err)
	}
	replayed, err := explore.Replay(m, trace)
	if err != nil {
		panic(err)
	}
	fmt.Println("threads in critical section after replay:", replayed.InCS())
	// Output:
	// threads in critical section after replay: 2
}
