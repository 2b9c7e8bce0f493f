package sim_test

import (
	"context"
	"fmt"

	"repro/model"
	"repro/sim"
)

func ExampleTSOMemory() {
	// Drive the paper's §3.2 store-buffer machine through the Figure 1
	// execution: writes buffer, reads fetch stale values from memory.
	m := sim.NewTSO(2)
	m.Write(0, "x", 1, false)
	m.Write(1, "y", 1, false)
	fmt.Println("p0 reads y:", m.Read(0, "y", false))
	fmt.Println("p1 reads x:", m.Read(1, "x", false))

	// The recorded (tagged) history is Figure 1, and the TSO checker
	// accepts it.
	h := m.Recorder().System()
	v, _ := model.TSO.Allows(context.Background(), h)
	fmt.Println("TSO checker accepts the recorded run:", v.Allowed)
	// Output:
	// p0 reads y: 0
	// p1 reads x: 0
	// TSO checker accepts the recorded run: true
}

func ExamplePRAMMemory() {
	// PRAM: replicated memory, FIFO channels. Each processor sees its
	// own write first (the paper's Figure 3 behaviour).
	m := sim.NewPRAM(2)
	m.Write(0, "x", 1, false)
	m.Write(1, "x", 2, false)
	fmt.Println("p0:", m.Read(0, "x", false), " p1:", m.Read(1, "x", false))
	sim.Quiesce(m) // deliver the cross updates
	fmt.Println("p0:", m.Read(0, "x", false), " p1:", m.Read(1, "x", false))
	// Output:
	// p0: 1  p1: 2
	// p0: 2  p1: 1
}

func ExampleRCMemory() {
	// Release consistency: an ordinary write becomes visible everywhere
	// no later than the processor's next release.
	m := sim.NewRCsc(2)
	m.Write(0, "data", 42, false)
	fmt.Println("before release:", m.Read(1, "data", false))
	m.Write(0, "flag", 1, true) // release
	fmt.Println("after release: ", m.Read(1, "data", false))
	// Output:
	// before release: 0
	// after release:  42
}
