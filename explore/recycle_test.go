package explore

import (
	"fmt"
	"sync"
	"testing"

	"repro/algorithms"
	"repro/program"
	"repro/sim"
)

// TestHandedOutMachinesOwned checks the searches' ownership rule: a search
// reuses the machines it checks and steps states in, and those machines
// record no history, so each machine it hands to the caller is one it
// builds apart, by replaying the state's schedule from the root. The invariant sees every
// state a search reaches, and the machines it sees must record nothing.
// Every Violation.State and every machine OnTerminal receives must be a
// machine the invariant never saw, in the state of one it rejected (a
// violation) or accepted (a terminal state), and no two of them may be
// the same machine. A violation's History must be its State's recorded
// history, and every hand-out must be unchanged after Exhaustive returns:
// a terminal state keeps the fingerprint and history it had when
// OnTerminal received it. Bakery(2,1) supplies violations; Lamport's fast
// mutex reaches terminal states while the breadth-first search still has
// levels to check, in machines a wrongly handed-out search machine would
// be reused for.
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
	for _, c := range cases {
		for _, mk := range c.mems {
			for _, workers := range []int{1, 2, 4} {
				testHandedOut(t, c.name, c.progs, mk(), workers)
			}
		}
	}
}

// testHandedOut runs one case of TestHandedOutMachinesOwned.
func testHandedOut(t *testing.T, prog string, progs [][]program.Stmt, mem sim.Memory, workers int) {
	t.Helper()
	name := fmt.Sprintf("%s/%s/workers=%d", prog, mem.Name(), workers)
	snapshot := func(m *program.Machine) string {
		return m.Fingerprint() + "\n" + m.Mem().Recorder().System().String()
	}
	m0, err := program.NewMachine(mem, progs)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	searched := map[*program.Machine]bool{}
	accepted, rejected := map[string]bool{}, map[string]bool{}
	recording := 0
	var terminals []*program.Machine
	var terminalStates []string
	res, err := Exhaustive(m0, Options{
		Workers: workers,
		Invariant: func(m *program.Machine) error {
			err := MutualExclusion(m)
			fp := m.Fingerprint()
			mu.Lock()
			defer mu.Unlock()
			searched[m] = true
			if m.Mem().Recorder().Len() != 0 {
				recording++
			}
			if err != nil {
				rejected[fp] = true
			} else {
				accepted[fp] = true
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
	if recording != 0 {
		t.Errorf("%s: the invariant saw %d machines that record a history", name, recording)
	}
	owners := map[*program.Machine]string{}
	handedOut := func(m *program.Machine, what string, states map[string]bool, verdict string) {
		if prev, ok := owners[m]; ok {
			t.Errorf("%s: %s and %s are the same machine", name, prev, what)
		}
		owners[m] = what
		if searched[m] {
			t.Errorf("%s: %s is a machine the search passed to the invariant", name, what)
		}
		if !states[m.Fingerprint()] {
			t.Errorf("%s: %s's state is not one the invariant %s", name, what, verdict)
		}
	}
	for i, v := range res.Violations {
		what := fmt.Sprintf("violation %d", i)
		handedOut(v.State, what, rejected, "rejected")
		if got := v.History.String(); got != v.State.Mem().Recorder().System().String() {
			t.Errorf("%s: %s's history is not its state's:\n%s", name, what, got)
		}
	}
	for i, m := range terminals {
		what := fmt.Sprintf("terminal %d", i)
		handedOut(m, what, accepted, "accepted")
		if got := snapshot(m); got != terminalStates[i] {
			t.Errorf("%s: %s changed after OnTerminal received it:\n%s\nwant\n%s", name, what, got, terminalStates[i])
		}
	}
}

// TestSteppedEqualsTransitions pins the work a search does to the work it
// counts: every transition either search counts is a memo hit or a memo
// miss it stepped, and nothing else is stepped. That holds on complete
// explorations and, since the parallel settling decides the MaxStates cap
// before a chunk is expanded, also on capped ones, where the frontier
// states past the cap are checked but their successors are not looked up.
// The number stepped is pinned exactly: the depth-first search steps each
// distinct (memory, action) and (memory, thread, thread state) once; the
// breadth-first one steps a miss once per node of the chunk that meets
// it, since the memos are written when the chunk is settled, which does
// not depend on how the workers are scheduled. The capped runs are
// TestMaxStatesOvershoot's.
func TestSteppedEqualsTransitions(t *testing.T) {
	for _, c := range []struct {
		rounds, maxStates, workers, states, stepped int
	}{
		{1, 0, 1, 2425, 1900},
		{1, 0, 2, 2425, 2171},
		{2, 0, 1, 84448, 41286},
		{2, 0, 2, 84448, 53843},
		{2, 5000, 1, 5032, 3765},
		{2, 5000, 2, 5997, 5675},
		{2, 5000, 4, 5997, 5675},
	} {
		m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, c.rounds, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exhaustive(m, Options{Workers: c.workers, MaxStates: c.maxStates})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Bakery(2,%d) RCpc cap %d workers=%d: %d states, %d transitions, %d memo hits, %d misses stepped",
			c.rounds, c.maxStates, c.workers, res.States, res.Transitions, res.hits, res.stepped)
		if res.States != c.states || res.hits+res.stepped != res.Transitions || res.stepped != c.stepped {
			t.Errorf("Bakery(2,%d) RCpc cap %d workers=%d: %d states, %d hits and %d stepped for %d transitions, want %d states, %d stepped and every transition a hit or a stepped miss",
				c.rounds, c.maxStates, c.workers, res.States, res.hits, res.stepped, res.Transitions, c.states, c.stepped)
		}
	}
}
