package explore

import (
	"context"
	"testing"

	"repro/algorithms"
	"repro/history"
	"repro/model"
	"repro/program"
	"repro/sim"
)

func bakeryMachine(t *testing.T, mem sim.Memory, n int, labeled bool) *program.Machine {
	t.Helper()
	m, err := program.NewMachine(mem, algorithms.Bakery(n, 1, labeled))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBakerySCIsSound model-checks the Bakery algorithm on sequentially
// consistent memory: no reachable state has two threads in the critical
// section, and the state space is exhausted.
func TestBakerySCIsSound(t *testing.T) {
	m := bakeryMachine(t, sim.NewSC(2), 2, false)
	res, err := Exhaustive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sound() {
		t.Errorf("Bakery on SC: violations=%d complete=%v (states=%d)",
			len(res.Violations), res.Complete, res.States)
	}
	if res.TerminalStates == 0 {
		t.Error("no terminal states reached")
	}
}

// TestBakeryRCscIsSound is half of the paper's Section 5: with every
// synchronization access labeled, the Bakery algorithm is correct on
// release consistency with sequentially consistent labeled operations.
// The exploration is exhaustive, so this is a proof over the operational
// model, not a sampling claim.
func TestBakeryRCscIsSound(t *testing.T) {
	m := bakeryMachine(t, sim.NewRCsc(2), 2, true)
	res, err := Exhaustive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sound() {
		t.Errorf("Bakery on RCsc: violations=%d complete=%v (states=%d)",
			len(res.Violations), res.Complete, res.States)
	}
	t.Logf("RCsc: %d states, %d transitions, %d terminal", res.States, res.Transitions, res.TerminalStates)
}

// TestBakeryRCpcViolated is the other half of Section 5: on RCpc the
// explorer finds an execution in which both processors are in the critical
// section. The violating history must be accepted by the RCpc checker
// (it is a legal RCpc history) and rejected by the RCsc checker — the
// mechanized version of the paper's argument that the two models differ.
func TestBakeryRCpcViolated(t *testing.T) {
	m := bakeryMachine(t, sim.NewRCpc(2), 2, true)
	res, err := Exhaustive(m, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("no mutual-exclusion violation found on RCpc (states=%d complete=%v)",
			res.States, res.Complete)
	}
	trace, h, _ := replayViolation(t, res.Violations[0])
	t.Logf("violation after %d choices:\n%s", len(trace), h)

	rcpc, err := model.RCpc.Allows(context.Background(), h)
	if err != nil {
		t.Fatalf("RCpc checker: %v", err)
	}
	if !rcpc.Allowed {
		t.Errorf("violating history rejected by the RCpc checker:\n%s", h)
	}
	rcsc, err := model.RCsc.Allows(context.Background(), h)
	if err != nil {
		t.Fatalf("RCsc checker: %v", err)
	}
	if rcsc.Allowed {
		t.Errorf("violating history accepted by the RCsc checker:\n%s", h)
	}
}

// replayViolation replays v, failing the test if it cannot be, and
// returns its trace, its history and its state.
func replayViolation(t testing.TB, v Violation) ([]string, *history.System, *program.Machine) {
	t.Helper()
	trace, m, err := v.Replay()
	if err != nil {
		t.Fatal(err)
	}
	return trace, m.Mem().Recorder().System(), m
}

// TestBakeryPRAMViolated: without any synchronization support at all
// (plain PRAM, unlabeled accesses), Bakery also fails — the weaker the
// memory, the easier the failure.
func TestBakeryPRAMViolated(t *testing.T) {
	m := bakeryMachine(t, sim.NewPRAM(2), 2, false)
	res, err := Exhaustive(m, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Error("no violation found on PRAM")
	}
}

// TestPetersonSCSoundAndRCpcViolated runs the same separation for
// Peterson's algorithm.
func TestPetersonSCSoundAndRCpcViolated(t *testing.T) {
	m, err := program.NewMachine(sim.NewSC(2), algorithms.Peterson(1, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sound() {
		t.Errorf("Peterson on SC: violations=%d complete=%v", len(res.Violations), res.Complete)
	}

	m2, err := program.NewMachine(sim.NewRCpc(2), algorithms.Peterson(1, true))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Exhaustive(m2, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Violations) == 0 {
		t.Error("Peterson on RCpc: no violation found")
	}
}

// TestPetersonRCscSound: Peterson with labeled accesses on RCsc is correct.
func TestPetersonRCscSound(t *testing.T) {
	m, err := program.NewMachine(sim.NewRCsc(2), algorithms.Peterson(1, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sound() {
		t.Errorf("Peterson on RCsc: violations=%d complete=%v", len(res.Violations), res.Complete)
	}
}

// TestDekkerSCSound and the RCpc violation for Dekker.
func TestDekkerSCSoundAndRCpcViolated(t *testing.T) {
	m, err := program.NewMachine(sim.NewSC(2), algorithms.Dekker(1, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sound() {
		t.Errorf("Dekker on SC: violations=%d complete=%v (states=%d)",
			len(res.Violations), res.Complete, res.States)
	}

	m2, err := program.NewMachine(sim.NewRCpc(2), algorithms.Dekker(1, true))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Exhaustive(m2, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Violations) == 0 {
		t.Error("Dekker on RCpc: no violation found")
	}
}

// TestBakeryTSOViolated: Bakery without fences is famously incorrect on
// TSO — the write→read bypass for different locations lets each processor
// read the other's number as 0 while its own writes sit in the buffer.
// This holds for both the forwarding machine and the non-forwarding
// machine (the paper's formal TSO): the breaking reorder is across
// DIFFERENT locations, which both variants permit. Bakery needs full SC
// (or RCsc labeling).
func TestBakeryTSOViolated(t *testing.T) {
	for _, mk := range []func(int) *sim.TSOMemory{sim.NewTSO, sim.NewTSONoForward} {
		mem := mk(2)
		m := bakeryMachine(t, mem, 2, false)
		res, err := Exhaustive(m, Options{StopAtFirst: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) == 0 {
			t.Errorf("Bakery on %s: no violation found", mem.Name())
		}
	}
}

func TestStochasticFindsRCpcViolations(t *testing.T) {
	mk := func() (*program.Machine, error) {
		return program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 1, true))
	}
	runs := 200
	violations, first, err := Stochastic(mk, runs, 42, Options{PInternal: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if violations == 0 {
		t.Error("stochastic runs found no RCpc violation in 200 runs")
	}
	if first == nil {
		t.Fatal("first violation not captured")
	}
	trace, h, m := replayViolation(t, *first)
	if len(trace) == 0 || len(trace) != first.Steps || h.NumOps() == 0 || m.InCS() < 2 {
		t.Errorf("first violation replays to %d steps (want %d), %d operations, %d threads in the critical section",
			len(trace), first.Steps, h.NumOps(), m.InCS())
	}
	t.Logf("RCpc stochastic: %d/%d runs violated mutual exclusion", violations, runs)
}

func TestStochasticCleanOnSC(t *testing.T) {
	mk := func() (*program.Machine, error) {
		return program.NewMachine(sim.NewSC(2), algorithms.Bakery(2, 1, false))
	}
	violations, _, err := Stochastic(mk, 100, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("SC runs violated mutual exclusion %d times", violations)
	}
}

func TestExhaustiveBounds(t *testing.T) {
	m := bakeryMachine(t, sim.NewSC(2), 2, false)
	res, err := Exhaustive(m, Options{MaxStates: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("truncated exploration reported complete")
	}
	if res.Sound() {
		t.Error("truncated exploration reported sound")
	}
}

func TestMutualExclusionInvariant(t *testing.T) {
	m, err := program.NewMachine(sim.NewSC(1), [][]program.Stmt{{
		program.Store{Loc: "x", E: program.Const(1)},
		program.CSEnter{},
		program.Store{Loc: "x", E: program.Const(2)},
		program.CSExit{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := MutualExclusion(m); err != nil {
		t.Errorf("0 threads in CS flagged: %v", err)
	}
	if err := m.StepThread(0); err != nil {
		t.Fatal(err)
	}
	if err := MutualExclusion(m); err != nil {
		t.Errorf("1 thread in CS flagged: %v", err)
	}
}

// TestReplayReproducesViolation: replaying a violation's trace from a
// fresh machine reaches a state with the same recorded history and the
// same mutual-exclusion breach.
func TestReplayReproducesViolation(t *testing.T) {
	fresh, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(fresh, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violation to replay")
	}
	trace, h, _ := replayViolation(t, res.Violations[0])
	replayed, err := Replay(fresh, trace)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.InCS() < 2 {
		t.Errorf("replayed state has %d threads in CS, want ≥2", replayed.InCS())
	}
	got := replayed.Mem().Recorder().System().String()
	want := h.String()
	if got != want {
		t.Errorf("replayed history differs:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestReplayRejectsBadTrace(t *testing.T) {
	m, err := program.NewMachine(sim.NewSC(1), [][]program.Stmt{{
		program.Store{Loc: "x", E: program.Const(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(m, []string{"bogus step"}); err == nil {
		t.Error("unrecognized step accepted")
	}
	if _, err := Replay(m, []string{"internal 0 (none)"}); err == nil {
		t.Error("unavailable internal action accepted")
	}
	if _, err := Replay(m, []string{"thread 7"}); err == nil {
		t.Error("nonexistent thread accepted")
	}
}

// TestBakeryDeadlockFree checks the paper's other Section 5 claim: "the
// solution is free from deadlocks" — from every reachable state of the
// Bakery algorithm (on SC and on RCsc), some schedule completes.
func TestBakeryDeadlockFree(t *testing.T) {
	for _, mk := range []struct {
		name string
		mem  sim.Memory
		lab  bool
	}{
		{"SC", sim.NewSC(2), false},
		{"RCsc", sim.NewRCsc(2), true},
	} {
		m, err := program.NewMachine(mk.mem, algorithms.Bakery(2, 1, mk.lab))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exhaustive(m, Options{TrackProgress: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.DeadlockFree() {
			t.Errorf("Bakery on %s: %d stuck states (complete=%v)", mk.name, res.StuckStates, res.Complete)
		}
	}
}

// TestDeadlockDetected: two threads each spin on a flag only the other
// would set — but neither ever sets it. Every non-initial state is stuck.
func TestDeadlockDetected(t *testing.T) {
	spin := func(loc string) []program.Stmt {
		return []program.Stmt{
			program.Assign{Dst: "f", E: program.Const(0)},
			program.While{
				Cond: program.Bin{Op: program.Eq, L: program.Local("f"), R: program.Const(0)},
				Body: []program.Stmt{program.Load{Dst: "f", Loc: loc}},
			},
		}
	}
	m, err := program.NewMachine(sim.NewSC(2), [][]program.Stmt{spin("a"), spin("b")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(m, Options{TrackProgress: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlockFree() {
		t.Error("mutual spin reported deadlock-free")
	}
	if res.StuckStates == 0 {
		t.Error("no stuck states found in a deadlocked program")
	}
	if res.TerminalStates != 0 {
		t.Error("deadlocked program reached a terminal state")
	}
}

// TestDeadlockFreeRequiresTracking: without TrackProgress the claim is
// never made.
func TestDeadlockFreeRequiresTracking(t *testing.T) {
	m, err := program.NewMachine(sim.NewSC(1), [][]program.Stmt{{
		program.Store{Loc: "x", E: program.Const(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlockFree() {
		t.Error("DeadlockFree true without TrackProgress")
	}
}
