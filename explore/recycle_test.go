package explore

import (
	"bytes"
	"context"
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
// Every machine Violation.Replay returns and every machine OnTerminal
// receives must be a machine the invariant never saw, in the state of one
// it rejected (a violation) or accepted (a terminal state), and no two of
// them may be the same machine. Replaying a violation twice must build
// two machines with the same state and history, and every hand-out must
// be unchanged after Exhaustive returns: a terminal state keeps the
// fingerprint and history it had when OnTerminal received it. Bakery(2,1)
// supplies violations; Lamport's fast mutex reaches terminal states while
// the search still has states to check, in machines a wrongly handed-out
// search machine would be reused for.
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
			testHandedOut(t, c.name, c.progs, mk())
		}
	}
}

// testHandedOut runs one case of TestHandedOutMachinesOwned.
func testHandedOut(t *testing.T, prog string, progs [][]program.Stmt, mem sim.Memory) {
	t.Helper()
	name := prog + "/" + mem.Name()
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
		_, _, m := replayViolation(t, v)
		handedOut(m, what, rejected, "rejected")
		_, _, again := replayViolation(t, v)
		handedOut(again, what+" replayed again", rejected, "rejected")
		if got, want := snapshot(again), snapshot(m); got != want {
			t.Errorf("%s: %s replays to\n%s\nthen to\n%s", name, what, want, got)
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

// TestSteppedEqualsTransitions pins the work the search does to the work
// it counts: every transition it counts is read from its successor tables
// alone (a hit) or steps a machine, and nothing else is stepped. The
// numbers are pinned exactly: the search steps each distinct (memory,
// internal action), (thread, operation, memory) and (thread state,
// answer) once, when a transition first needs it, and a thread in its
// initial state every time it steps. The capped run is
// TestMaxStatesOvershoot's.
func TestSteppedEqualsTransitions(t *testing.T) {
	for _, c := range []struct {
		rounds, maxStates, states, hits, stepped int
	}{
		{1, 0, 2425, 5384, 1350},
		{2, 0, 84448, 250430, 20798},
		{2, 5000, 5032, 11897, 2460},
	} {
		m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, c.rounds, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exhaustive(m, Options{MaxStates: c.maxStates})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Bakery(2,%d) RCpc cap %d: %d states, %d transitions, %d hits, %d stepped",
			c.rounds, c.maxStates, res.States, res.Transitions, res.hits, res.stepped)
		if res.States != c.states || res.hits+res.stepped != res.Transitions ||
			res.hits != c.hits || res.stepped != c.stepped {
			t.Errorf("Bakery(2,%d) RCpc cap %d: %d states, %d hits and %d stepped for %d transitions, want %d states, %d hits, %d stepped and every transition one of the two",
				c.rounds, c.maxStates, res.States, res.hits, res.stepped, res.Transitions, c.states, c.hits, c.stepped)
		}
	}
}

// TestRepresentativesKeepTheirKeys checks that nothing changes a memory
// representative during a search. The invariant is shown each state's
// representative itself (program.Machine.ShareMem), not a copy, and the
// successor tables are filled by stepping copies of it, so a step of the
// view's memory, or of a representative in place of its copy, would leave
// a representative in another state than the one its id names, and every
// state built on it wrong. After a complete search of Bakery(2,1) on each
// of the nine memories, every representative must still key to the key
// it was interned under.
func TestRepresentativesKeepTheirKeys(t *testing.T) {
	for _, mem := range sim.Memories(2) {
		m, err := program.NewMachine(mem, algorithms.Bakery(2, 1, true))
		if err != nil {
			t.Fatal(err)
		}
		sr := newSearch(m, Options{MaxStates: 1 << 20, MaxDepth: 10_000}, MutualExclusion)
		if err := sr.depthFirst(context.Background()); err != nil || !sr.res.Complete {
			t.Fatalf("%s: complete=%v err=%v", mem.Name(), sr.res.Complete, err)
		}
		sp := sr.sp
		changed := 0
		var key []byte
		for id, rep := range sp.memReps {
			if key = rep.AppendKey(key[:0]); !bytes.Equal(key, sp.mems.key(uint32(id))) {
				changed++
			}
		}
		t.Logf("%s: %d states, %d memory representatives", mem.Name(), sr.res.States, len(sp.memReps))
		if changed != 0 {
			t.Errorf("%s: %d of %d memory representatives no longer key to their ids", mem.Name(), changed, len(sp.memReps))
		}
	}
}
