package algorithms

import (
	"math/rand"
	"testing"

	"repro/explore"
	"repro/history"
	"repro/program"
	"repro/sim"
)

func TestBakeryCompilesForVariousN(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		progs := Bakery(n, 1, true)
		if len(progs) != n {
			t.Fatalf("Bakery(%d) returned %d programs", n, len(progs))
		}
		if _, err := program.NewMachine(sim.NewRCsc(n), progs); err != nil {
			t.Errorf("Bakery(%d) does not compile: %v", n, err)
		}
	}
}

func TestBakerySequentialRunCompletes(t *testing.T) {
	// Run threads round-robin on SC; every thread must pass through its
	// critical section and halt.
	m, err := program.NewMachine(sim.NewSC(3), Bakery(3, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	steps := 0
	for !m.Halted() && steps < 10000 {
		r := m.Runnable()
		if err := m.StepThread(r[rng.Intn(len(r))]); err != nil {
			t.Fatal(err)
		}
		if m.InCS() > 1 {
			t.Fatal("mutual exclusion violated on SC")
		}
		steps++
	}
	if !m.Halted() {
		t.Fatalf("Bakery did not terminate in %d steps", steps)
	}
}

func TestBakeryRoundsLoop(t *testing.T) {
	// With 3 rounds, each processor writes number[i] three times (plus
	// the zero-reset) — check by counting recorded writes.
	m, err := program.NewMachine(sim.NewSC(2), Bakery(2, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	for !m.Halted() {
		if err := m.StepThread(m.Runnable()[0]); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Mem().Recorder().System()
	// Per processor per round: w(choosing)true, w(number)mine,
	// w(choosing)false, w(number)0 = 4 writes; 3 rounds = 12 writes.
	for p := 0; p < 2; p++ {
		writes := 0
		for _, id := range s.ProcOps(history.Proc(p)) {
			if s.Op(id).Kind == history.Write {
				writes++
			}
		}
		if writes != 12 {
			t.Errorf("p%d recorded %d writes, want 12", p, writes)
		}
	}
}

func TestBakeryTicketOrderOnSC(t *testing.T) {
	// Under a sequential scheduler the first processor to pick gets the
	// smaller ticket and enters first; this exercises the max-scan and
	// the lexicographic comparison.
	mem := sim.NewSC(2)
	m, err := program.NewMachine(mem, Bakery(2, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	// Run p0 fully, then p1 — p0 must not block.
	for _, ti := range []int{0, 1} {
		for {
			still := false
			for _, r := range m.Runnable() {
				if r == ti {
					still = true
				}
			}
			if !still {
				break
			}
			if err := m.StepThread(ti); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !m.Halted() {
		t.Fatal("sequential bakery did not finish")
	}
}

func TestPetersonCompilesAndRuns(t *testing.T) {
	m, err := program.NewMachine(sim.NewSC(2), Peterson(2, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for steps := 0; !m.Halted() && steps < 10000; steps++ {
		r := m.Runnable()
		if err := m.StepThread(r[rng.Intn(len(r))]); err != nil {
			t.Fatal(err)
		}
		if m.InCS() > 1 {
			t.Fatal("Peterson violated mutual exclusion on SC")
		}
	}
	if !m.Halted() {
		t.Fatal("Peterson did not terminate")
	}
}

func TestDekkerCompilesAndRuns(t *testing.T) {
	m, err := program.NewMachine(sim.NewSC(2), Dekker(2, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for steps := 0; !m.Halted() && steps < 20000; steps++ {
		r := m.Runnable()
		if err := m.StepThread(r[rng.Intn(len(r))]); err != nil {
			t.Fatal(err)
		}
		if m.InCS() > 1 {
			t.Fatal("Dekker violated mutual exclusion on SC")
		}
	}
	if !m.Halted() {
		t.Fatal("Dekker did not terminate")
	}
}

// TestBakeryThreeProcessorsRCscSound extends the paper's experiment to
// n = 3 exhaustively and pins the complete search: under RCsc, Bakery(3,1)
// is still sound and, as Section 5 says, free from deadlocks.
func TestBakeryThreeProcessorsRCscSound(t *testing.T) {
	m, err := program.NewMachine(sim.NewRCsc(3), Bakery(3, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.Exhaustive(m, explore.Options{TrackProgress: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.States != 12_475 || res.Transitions != 31_427 ||
		res.TerminalStates != 86 || len(res.Violations) != 0 {
		t.Errorf("Bakery n=3 on RCsc: complete=%v %d states, %d transitions, %d terminal, %d violations; want complete, 12475/31427/86/0",
			res.Complete, res.States, res.Transitions, res.TerminalStates, len(res.Violations))
	}
	if res.StuckStates != 0 || !res.DeadlockFree() {
		t.Errorf("Bakery n=3 on RCsc: %d stuck states, deadlock-free %v; want 0, true", res.StuckStates, res.DeadlockFree())
	}
}

// TestBakeryThreeProcessorsRCpcViolated extends the violation to n = 3.
func TestBakeryThreeProcessorsRCpcViolated(t *testing.T) {
	m, err := program.NewMachine(sim.NewRCpc(3), Bakery(3, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.Exhaustive(m, explore.Options{StopAtFirst: true, MaxStates: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Error("Bakery n=3 on RCpc: no violation found")
	}
}

func TestLabeledFlagPropagates(t *testing.T) {
	for _, labeled := range []bool{false, true} {
		m, err := program.NewMachine(sim.NewSC(2), Bakery(2, 1, labeled))
		if err != nil {
			t.Fatal(err)
		}
		for !m.Halted() {
			if err := m.StepThread(m.Runnable()[0]); err != nil {
				t.Fatal(err)
			}
		}
		s := m.Mem().Recorder().System()
		labeledOps := len(s.Labeled())
		if labeled && labeledOps != s.NumOps() {
			t.Errorf("labeled bakery recorded %d/%d labeled ops", labeledOps, s.NumOps())
		}
		if !labeled && labeledOps != 0 {
			t.Errorf("unlabeled bakery recorded %d labeled ops", labeledOps)
		}
	}
}
