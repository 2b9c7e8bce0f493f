package explore

import (
	"fmt"
	"slices"
	"testing"

	"repro/algorithms"
	"repro/program"
	"repro/sim"
)

// This file keeps the explorer's uncollapsed search as the reference the
// collapsed searches are tested against: every state is a whole machine,
// keyed by every thread's key followed by the memory's, every successor is
// copied into a spare machine and stepped, and every violation's schedule is replayed and
// rendered from the root on its own. Its schedules are linked by
// pointers. It shares the step type and the key set with the package, and
// nothing of the component tables, the successor tables, the schedule
// links or the violation walk.

// oracleKey appends m's whole key: each thread's key, then the memory's.
func oracleKey(dst []byte, m *program.Machine) []byte {
	for i := range m.NumThreads() {
		dst = m.AppendThreadKey(dst, i)
	}
	return m.Mem().AppendKey(dst)
}

// oracleNode is a state of the reference search: its machine, the last
// step of the schedule that reached it and that schedule's length.
type oracleNode struct {
	m     *program.Machine
	step  *oracleStep
	depth int
}

// oracleStep is a step of the reference search, linked to the step before
// it.
type oracleStep struct {
	parent *oracleStep
	step
}

// oracleFound is a violation the reference search found: the invariant's
// error and the last step of the schedule that reached it.
type oracleFound struct {
	err  error
	step *oracleStep
}

// oracleExhaustive explores m0's state space in the reference way,
// depth-first, pushing successors in step order. It honours
// MaxStates, MaxDepth, Invariant, StopAtFirst and TrackProgress, and
// fills States, Transitions, TerminalStates, StuckStates, Complete,
// Incomplete and Violations.
func oracleExhaustive(m0 *program.Machine, opts Options) (Result, error) {
	if opts.MaxStates == 0 {
		opts.MaxStates = 1 << 20
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 10_000
	}
	inv := opts.Invariant
	if inv == nil {
		inv = MutualExclusion
	}
	res := Result{Complete: true}
	var edges map[string][]string
	var terminals []string
	if opts.TrackProgress {
		edges = map[string][]string{}
	}
	root := m0.Clone()
	root.Mem().Recorder().Discard()
	seen := newKeySet()
	key := oracleKey(nil, root)
	seen.intern(seen.hash(key), key)
	work := []oracleNode{{m: root}}
	var fs []oracleFound
	var scratch *program.Machine // a machine no state holds

	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		res.States++
		var nKey string
		if edges != nil {
			nKey = string(oracleKey(nil, n.m))
		}
		if bad := inv(n.m); bad != nil {
			fs = append(fs, oracleFound{err: bad, step: n.step})
			if opts.StopAtFirst {
				res.truncate(IncompleteFirstViolation)
				break
			}
			continue
		}
		switch {
		case n.m.Halted() && n.m.Mem().NumInternal() == 0:
			res.TerminalStates++
			terminals = append(terminals, nKey)
			continue
		case n.depth >= opts.MaxDepth:
			res.truncate(IncompleteMaxDepth)
			continue
		case res.States >= opts.MaxStates:
			res.truncate(IncompleteMaxStates)
			continue
		}
		var steps []oracleStep
		for i := range n.m.NumThreads() {
			if !n.m.ThreadHalted(i) {
				steps = append(steps, oracleStep{n.step, step{index: i}})
			}
		}
		for i := range n.m.Mem().NumInternal() {
			steps = append(steps, oracleStep{n.step, step{internal: true, index: i}})
		}
		for _, st := range steps {
			m := n.m.CloneInto(scratch)
			scratch = m
			if err := st.apply(m); err != nil {
				return res, err
			}
			res.Transitions++
			key = oracleKey(key[:0], m)
			if edges != nil {
				edges[nKey] = append(edges[nKey], string(key))
			}
			if _, added := seen.intern(seen.hash(key), key); added {
				work = append(work, oracleNode{m: m, step: &st, depth: n.depth + 1})
				scratch = nil
			}
		}
	}
	if edges != nil && res.Complete {
		res.StuckStates = oracleStuck(edges, terminals)
	}
	for _, f := range fs {
		m, trace, err := oracleReplay(f.step, m0)
		if err != nil {
			return res, err
		}
		res.Violations = append(res.Violations, Violation{Err: f.err, Trace: trace, History: m.Mem().Recorder().System(), State: m})
	}
	return res, nil
}

// oracleReplay replays the schedule ending in s in a fresh copy of root,
// rendering each step in the state it was taken in.
func oracleReplay(s *oracleStep, root *program.Machine) (*program.Machine, []string, error) {
	var steps []*oracleStep
	for p := s; p != nil; p = p.parent {
		steps = append(steps, p)
	}
	slices.Reverse(steps)
	m := root.Clone()
	var trace []string
	for _, st := range steps {
		if st.internal {
			trace = append(trace, internalStep(st.index, m.Mem().Internal()[st.index]))
		} else {
			trace = append(trace, threadStep(st.index))
		}
		if err := st.apply(m); err != nil {
			return nil, nil, err
		}
	}
	return m, trace, nil
}

// oracleStuck counts the states, keyed, that appear in an edge or as a
// terminal and reach no terminal state.
func oracleStuck(edges map[string][]string, terminals []string) int {
	rev := map[string][]string{}
	all := map[string]bool{}
	for from, tos := range edges {
		all[from] = true
		for _, to := range tos {
			rev[to] = append(rev[to], from)
			all[to] = true
		}
	}
	canFinish := map[string]bool{}
	queue := append([]string(nil), terminals...)
	for _, t := range terminals {
		all[t] = true
		canFinish[t] = true
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range rev[s] {
			if !canFinish[p] {
				canFinish[p] = true
				queue = append(queue, p)
			}
		}
	}
	stuck := 0
	for s := range all {
		if !canFinish[s] {
			stuck++
		}
	}
	return stuck
}

// readDrains is two threads that issue the same loads: each stores its
// own value to x and y and then reads both back. On the non-forwarding TSO
// memory a read of a location the reader has buffered drains the reader's
// buffer, so the memory's answer to a load, and the state it leaves,
// depend on the memory's state and on which thread loads, not on the
// operation alone.
func readDrains() [][]program.Stmt {
	var progs [][]program.Stmt
	for i := range 2 {
		progs = append(progs, []program.Stmt{
			program.Store{Loc: "x", E: program.Const(i + 1)},
			program.Store{Loc: "y", E: program.Const(i + 1)},
			program.Load{Dst: "r", Loc: "x"},
			program.Load{Dst: "s", Loc: "y"},
			program.Store{Loc: "z", E: program.Bin{Op: program.Add, L: program.Local("r"), R: program.Local("s")}},
		})
	}
	return progs
}

// TestCollapsedMatchesOracle is the collapsed search's differential test:
// it must report exactly the reference search's counts, stuck states
// included, and the same violations, in the same order, with the same
// traces, histories and state fingerprints. The cases are
// Bakery(2,1) on all nine memories, Peterson and Dekker on SC and RCpc,
// Bakery(2,2) on RCpc (without progress tracking, whose reference keeps
// every edge as two strings), and readDrains on the non-forwarding TSO
// memory, whose reads change its state.
func TestCollapsedMatchesOracle(t *testing.T) {
	type tc struct {
		name  string
		mem   func() sim.Memory
		progs [][]program.Stmt
		track bool
	}
	var cases []tc
	for i := range sim.Memories(2) {
		mem := func() sim.Memory { return sim.Memories(2)[i] }
		cases = append(cases, tc{"Bakery(2,1)/" + mem().Name(), mem, algorithms.Bakery(2, 1, true), true})
	}
	sc := func() sim.Memory { return sim.NewSC(2) }
	rcpc := func() sim.Memory { return sim.NewRCpc(2) }
	cases = append(cases,
		tc{"Peterson/SC", sc, algorithms.Peterson(1, false), true},
		tc{"Peterson/RCpc", rcpc, algorithms.Peterson(1, true), true},
		tc{"Dekker/SC", sc, algorithms.Dekker(1, false), true},
		tc{"Dekker/RCpc", rcpc, algorithms.Dekker(1, true), true},
		tc{"Bakery(2,2)/RCpc", rcpc, algorithms.Bakery(2, 2, true), false},
		tc{"readDrains/TSO", func() sim.Memory { return sim.NewTSONoForward(2) }, readDrains(), true},
	)
	for _, c := range cases {
		machine := func() *program.Machine {
			m, err := program.NewMachine(c.mem(), c.progs)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		opts := Options{TrackProgress: c.track}
		want, err := oracleExhaustive(machine(), opts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		got, err := Exhaustive(machine(), opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		compareWithOracle(t, c.name, got, want)
	}
}

// compareWithOracle reports how got differs from the reference result
// want.
func compareWithOracle(t *testing.T, name string, got, want Result) {
	t.Helper()
	counts := func(r Result) string {
		return fmt.Sprintf("complete=%v states=%d transitions=%d terminal=%d stuck=%d violations=%d",
			r.Complete, r.States, r.Transitions, r.TerminalStates, r.StuckStates, len(r.Violations))
	}
	if counts(got) != counts(want) {
		t.Errorf("%s: %s, oracle %s", name, counts(got), counts(want))
		return
	}
	t.Logf("%s: %s", name, counts(got))
	for i, v := range got.Violations {
		w := want.Violations[i]
		switch {
		case !slices.Equal(v.Trace, w.Trace):
			t.Errorf("%s: violation %d's trace\n%q\noracle\n%q", name, i, v.Trace, w.Trace)
		case v.History.String() != w.History.String():
			t.Errorf("%s: violation %d's history\n%s\noracle\n%s", name, i, v.History, w.History)
		case v.State.Fingerprint() != w.State.Fingerprint() || v.Err.Error() != w.Err.Error():
			t.Errorf("%s: violation %d's state or error differs from the oracle's", name, i)
		}
	}
}
