package explore

import (
	"fmt"
	"sync"
	"testing"

	"repro/algorithms"
	"repro/program"
	"repro/sim"
)

// TestHandedOutMachinesOwned checks the searches' ownership rule: the
// machines they recycle are only ever their own, never one handed to the
// caller. Every violating state is recorded, fingerprint and recorded
// history, when the invariant rejects it, and every terminal state when
// OnTerminal receives it; after Exhaustive returns, each machine reported
// as a Violation.State or received by OnTerminal must still hold exactly
// that state, and no two of them may be the same machine. Bakery(2,1)
// supplies violations; Lamport's fast mutex reaches terminal states while
// the breadth-first search still has levels to build, in machines a
// wrongly recycled terminal state would be reused for.
func TestHandedOutMachinesOwned(t *testing.T) {
	sc := func() sim.Memory { return sim.NewSC(2) }
	tso := func() sim.Memory { return sim.NewTSO(2) }
	rcpc := func() sim.Memory { return sim.NewRCpc(2) }
	cases := []struct {
		name  string
		progs [][]program.Stmt
		mems  []func() sim.Memory
	}{
		{"Bakery(2,1)", algorithms.Bakery(2, 1, true), []func() sim.Memory{
			sc, tso, rcpc,
			func() sim.Memory { return sim.NewPRAM(2) },
			func() sim.Memory { return sim.NewCausal(2) },
			func() sim.Memory { return sim.NewSlow(2) },
		}},
		{"LamportFast", algorithms.LamportFast(true), []func() sim.Memory{sc, tso, rcpc}},
	}
	snapshot := func(m *program.Machine) string {
		return m.Fingerprint() + "\n" + m.Mem().Recorder().System().String()
	}
	for _, c := range cases {
		for _, mk := range c.mems {
			for _, workers := range []int{1, 2, 4} {
				testHandedOut(t, c.name, c.progs, mk(), workers, snapshot)
			}
		}
	}
}

// testHandedOut runs one case of TestHandedOutMachinesOwned.
func testHandedOut(t *testing.T, prog string, progs [][]program.Stmt, mem sim.Memory, workers int, snapshot func(*program.Machine) string) {
	t.Helper()
	name := fmt.Sprintf("%s/%s/workers=%d", prog, mem.Name(), workers)
	m0, err := program.NewMachine(mem, progs)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	rejected := map[*program.Machine]string{}
	var terminals []*program.Machine
	var terminalStates []string
	res, err := Exhaustive(m0, Options{
		Workers: workers,
		Invariant: func(m *program.Machine) error {
			err := MutualExclusion(m)
			if err != nil {
				s := snapshot(m)
				mu.Lock()
				rejected[m] = s
				mu.Unlock()
			}
			return err
		},
		OnTerminal: func(m *program.Machine) bool {
			terminals = append(terminals, m)
			terminalStates = append(terminalStates, snapshot(m))
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d states, %d violations, %d terminal states", name, res.States, len(res.Violations), len(terminals))
	if !res.Complete || len(terminals) != res.TerminalStates || len(terminals) == 0 {
		t.Fatalf("%s: complete=%v, %d terminal states, %d seen by OnTerminal", name, res.Complete, res.TerminalStates, len(terminals))
	}
	owners := map[*program.Machine]string{}
	claim := func(m *program.Machine, what string) {
		if prev, ok := owners[m]; ok {
			t.Errorf("%s: %s and %s are the same machine", name, prev, what)
		}
		owners[m] = what
	}
	for i, v := range res.Violations {
		what := fmt.Sprintf("violation %d", i)
		claim(v.State, what)
		want, ok := rejected[v.State]
		if !ok {
			t.Errorf("%s: %s's state is not a machine the invariant rejected", name, what)
			continue
		}
		if got := snapshot(v.State); got != want {
			t.Errorf("%s: %s's state changed after it was reported:\n%s\nwant\n%s", name, what, got, want)
		}
		if got := v.History.String(); got != v.State.Mem().Recorder().System().String() {
			t.Errorf("%s: %s's history is not its state's:\n%s", name, what, got)
		}
	}
	for i, m := range terminals {
		what := fmt.Sprintf("terminal %d", i)
		claim(m, what)
		if got := snapshot(m); got != terminalStates[i] {
			t.Errorf("%s: %s changed after OnTerminal received it:\n%s\nwant\n%s", name, what, got, terminalStates[i])
		}
	}
}

// TestSteppedEqualsTransitions pins the work a search does to the work it
// counts: every successor either search steps is a transition the result
// reports. That holds on complete explorations and, since the parallel
// merge decides the MaxStates cap before a chunk is expanded, also on
// capped ones, where the frontier states past the cap are built and
// checked but their successors are not stepped. The capped runs are
// TestMaxStatesOvershoot's.
func TestSteppedEqualsTransitions(t *testing.T) {
	for _, c := range []struct {
		rounds, maxStates, workers, states int
	}{
		{1, 0, 1, 2425},
		{1, 0, 2, 2425},
		{2, 5000, 1, 5032},
		{2, 5000, 2, 5997},
		{2, 5000, 4, 5997},
	} {
		m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, c.rounds, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exhaustive(m, Options{Workers: c.workers, MaxStates: c.maxStates})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Bakery(2,%d) RCpc cap %d workers=%d: %d states, %d transitions, %d successors stepped",
			c.rounds, c.maxStates, c.workers, res.States, res.Transitions, res.stepped)
		if res.States != c.states || res.stepped != res.Transitions {
			t.Errorf("Bakery(2,%d) RCpc cap %d workers=%d: %d states, %d successors stepped for %d transitions, want %d states and one step per transition",
				c.rounds, c.maxStates, c.workers, res.States, res.stepped, res.Transitions, c.states)
		}
	}
}
