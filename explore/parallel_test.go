package explore

import (
	"context"
	"reflect"
	"testing"

	"repro/model"
	"repro/sim"
)

// TestExhaustiveParallelMatchesSequential is the explorer's differential
// test: on complete explorations the frontier-parallel search must report
// exactly the sequential depth-first search's counts.
func TestExhaustiveParallelMatchesSequential(t *testing.T) {
	mems := []func() sim.Memory{
		func() sim.Memory { return sim.NewSC(2) },
		func() sim.Memory { return sim.NewRCsc(2) },
	}
	for _, mk := range mems {
		mem := mk()
		name := mem.Name()
		t.Run(name, func(t *testing.T) {
			labeled := name != "SC"
			seq, err := Exhaustive(bakeryMachine(t, mem, 2, labeled), Options{Workers: 1, TrackProgress: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Exhaustive(bakeryMachine(t, mk(), 2, labeled), Options{Workers: 4, TrackProgress: true})
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Complete || !par.Complete {
				t.Fatalf("explorations not complete: seq=%v par=%v", seq.Complete, par.Complete)
			}
			if seq.States != par.States || seq.Transitions != par.Transitions ||
				seq.TerminalStates != par.TerminalStates || len(seq.Violations) != len(par.Violations) ||
				seq.StuckStates != par.StuckStates {
				t.Errorf("sequential/parallel mismatch on %s:\n  seq: states=%d transitions=%d terminal=%d violations=%d stuck=%d\n  par: states=%d transitions=%d terminal=%d violations=%d stuck=%d",
					name,
					seq.States, seq.Transitions, seq.TerminalStates, len(seq.Violations), seq.StuckStates,
					par.States, par.Transitions, par.TerminalStates, len(par.Violations), par.StuckStates)
			}
		})
	}
}

// TestExhaustiveParallelFindsRCpcViolation re-runs the paper's Section 5
// separation through the parallel explorer: the violation it finds on RCpc
// must be a history the RCpc checker accepts and the RCsc checker rejects.
func TestExhaustiveParallelFindsRCpcViolation(t *testing.T) {
	m := bakeryMachine(t, sim.NewRCpc(2), 2, true)
	res, err := Exhaustive(m, Options{Workers: 4, StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("no mutual-exclusion violation found on RCpc (states=%d)", res.States)
	}
	v := res.Violations[0]
	rcpc, err := model.RCpc.Allows(context.Background(), v.History)
	if err != nil {
		t.Fatalf("RCpc checker: %v", err)
	}
	if !rcpc.Allowed {
		t.Errorf("violating history rejected by the RCpc checker:\n%s", v.History)
	}
	rcsc, err := model.RCsc.Allows(context.Background(), v.History)
	if err != nil {
		t.Fatalf("RCsc checker: %v", err)
	}
	if rcsc.Allowed {
		t.Errorf("violating history accepted by the RCsc checker:\n%s", v.History)
	}
	// The trace must replay to the violating state.
	replayed, err := Replay(bakeryMachine(t, sim.NewRCpc(2), 2, true), v.Trace)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.InCS() < 2 {
		t.Errorf("replayed trace has %d threads in the critical section", replayed.InCS())
	}
}

// TestExhaustiveParallelDeterministic: two parallel runs are identical down
// to the violation traces, regardless of worker scheduling (the merge phase
// is sequential in frontier order).
func TestExhaustiveParallelDeterministic(t *testing.T) {
	run := func() Result {
		res, err := Exhaustive(bakeryMachine(t, sim.NewRCpc(2), 2, true), Options{Workers: 4, StopAtFirst: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.States != b.States || len(a.Violations) != len(b.Violations) {
		t.Fatalf("runs differ: states %d vs %d, violations %d vs %d",
			a.States, b.States, len(a.Violations), len(b.Violations))
	}
	if !reflect.DeepEqual(a.Violations[0].Trace, b.Violations[0].Trace) {
		t.Errorf("violation traces differ:\n%v\n%v", a.Violations[0].Trace, b.Violations[0].Trace)
	}
}
