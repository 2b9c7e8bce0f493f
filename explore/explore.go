// Package explore model-checks guest programs on simulated memories: it
// exhaustively enumerates every interleaving of program steps and memory-
// internal actions (deliveries, buffer drains), deduplicating states
// exactly, and checks an invariant — mutual exclusion, for the paper's
// Section 5 — in every reachable state. It also provides a stochastic
// runner for workloads whose state space is too large to exhaust.
//
// This is the tool that mechanizes the paper's central experiment: under
// the RCsc memory the Bakery algorithm's state space contains no state
// with two processors in the critical section; under RCpc the explorer
// finds one and returns the schedule and the recorded history — a history
// the model.RCpc checker accepts and the model.RCsc checker rejects.
//
// Exhaustive is one sequential depth-first search, so violations, traces
// and counts are deterministic. It keeps a state as a tuple of ids of its
// components — each thread's local state and the memory's state, interned
// once each — and reads successors from dense tables, indexed by those
// ids, of the memory operations, thread finishes and internal actions
// already taken, so most transitions step no machine and look up no map
// (space.go). A state's schedule is one link to its parent state.
// Depth-first order does not give shortest counterexamples: on
// Bakery(2,2) RCpc with StopAtFirst, the schedule it reports has 36 steps
// where a breadth-first search reports 16.
//
// The machines the search steps and checks record no history
// (sim.Recorder.Discard): a state's history depends only on the root and
// the schedule that reached it. The search hands out none of them. Each
// machine it hands out — a violating state (Violation.Replay) or a
// terminal state passed to Options.OnTerminal — is built apart, by
// replaying its schedule from the machine the caller passed in, with the
// history recorded along the way; the caller may keep and inspect it. A
// violation is counted, not built: only the violations a caller replays
// cost a machine, a trace and a history.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/obs"
	"repro/program"
)

// Invariant checks a machine state, returning a non-nil error describing
// the violation if the state is bad. It must not change the machine, nor
// step its memory: Exhaustive passes it a machine whose memory is one of
// the search's state tables' own (see program.Machine.ShareMem), and which
// records no history; a violation's history is rebuilt when it is
// replayed (Violation.Replay).
type Invariant func(*program.Machine) error

// MutualExclusion is the invariant of the paper's Section 5: at most one
// thread inside its critical section.
func MutualExclusion(m *program.Machine) error {
	if n := m.InCS(); n > 1 {
		return fmt.Errorf("mutual exclusion violated: %d threads in the critical section", n)
	}
	return nil
}

// Violation describes an invariant violation found during exploration. It
// holds what the violation is rebuilt from, not the violating state:
// Replay builds that.
type Violation struct {
	// Err is the invariant's description of what went wrong.
	Err error
	// Steps is the length of the schedule that reaches the violating
	// state.
	Steps int
	state uint32 // the violating state's number in from.sched
	from  *origin
}

// origin is what a search's violations are rebuilt from: a copy of the
// machine the search started in, and either Exhaustive's schedule links or
// the trace Stochastic recorded.
type origin struct {
	root  *program.Machine
	sched *schedules
	trace []string
}

// Replay rebuilds the violation from a fresh copy of the machine its search
// started in. It returns the choices leading to the violation, in order,
// as the package-level Replay reads them (e.g. "thread 1" or
// "internal 0 (deliver p0→p1 x)"), and the violating machine, which
// records the history along them: m.Mem().Recorder().System() is the
// tagged system execution history, checkable against package model. Each
// call builds a new machine, which the caller may inspect and keep.
func (v Violation) Replay() (trace []string, m *program.Machine, err error) {
	if v.from.sched == nil {
		m, err = Replay(v.from.root, v.from.trace)
		return slices.Clone(v.from.trace), m, err
	}
	return v.from.sched.replay(v.state, v.from.root, true)
}

// Options bounds exploration.
type Options struct {
	// MaxStates caps visited states (0 = 1<<20). Hitting the cap truncates
	// the exploration: the search drains states already on its worklist but
	// expands no new ones, Complete is false and Incomplete reports
	// IncompleteMaxStates — distinguishable from a deadline or
	// cancellation truncation.
	MaxStates int
	// MaxDepth caps schedule length (0 = 10_000). States at the cap are
	// not expanded; a truncation this causes reports IncompleteMaxDepth.
	MaxDepth int
	// Invariant is checked at every state (nil = MutualExclusion).
	Invariant Invariant
	// StopAtFirst stops at the first violation.
	StopAtFirst bool
	// PInternal is the probability the Stochastic runner performs an
	// enabled internal action rather than a program step (0 = default
	// 0.5). Low values delay deliveries, widening the race windows that
	// weak memories expose; Exhaustive ignores it.
	PInternal float64
	// OnTerminal, if non-nil, is called for every terminal state (all
	// threads halted, no internal actions pending) reached by
	// Exhaustive. The machine is rebuilt by replaying the state's schedule
	// and records the history along it; the callback may inspect and keep
	// it. Returning false stops the exploration.
	OnTerminal func(*program.Machine) bool
	// TrackProgress records the state graph during Exhaustive so the
	// result can report progress failures: states from which no terminal
	// state is reachable under ANY schedule (deadlock or inherent
	// livelock). The paper's Section 5 notes Bakery is "free from
	// deadlocks"; this makes the claim checkable.
	TrackProgress bool
}

// IncompleteReason classifies why an exploration did not exhaust the state
// space. The zero value IncompleteNone accompanies a complete exploration.
type IncompleteReason uint8

const (
	// IncompleteNone: the exploration was complete.
	IncompleteNone IncompleteReason = iota
	// IncompleteMaxStates: the Options.MaxStates cap was reached.
	IncompleteMaxStates
	// IncompleteMaxDepth: some schedule reached Options.MaxDepth.
	IncompleteMaxDepth
	// IncompleteFirstViolation: StopAtFirst ended the search at the first
	// violation.
	IncompleteFirstViolation
	// IncompleteCallbackStop: an OnTerminal callback returned false.
	IncompleteCallbackStop
	// IncompleteDeadline: the context's deadline passed.
	IncompleteDeadline
	// IncompleteCanceled: the context was cancelled.
	IncompleteCanceled
)

// String renders the reason for CLI output.
func (r IncompleteReason) String() string {
	switch r {
	case IncompleteNone:
		return "complete"
	case IncompleteMaxStates:
		return "max states reached"
	case IncompleteMaxDepth:
		return "max depth reached"
	case IncompleteFirstViolation:
		return "stopped at first violation"
	case IncompleteCallbackStop:
		return "stopped by callback"
	case IncompleteDeadline:
		return "deadline exceeded"
	case IncompleteCanceled:
		return "canceled"
	}
	return fmt.Sprintf("IncompleteReason(%d)", uint8(r))
}

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of edges explored.
	Transitions int
	// Violations found, in the order the search found them (possibly
	// truncated by StopAtFirst). Each is built only when replayed.
	Violations []Violation
	// Complete reports whether the state space was exhausted within the
	// bounds; if false, absence of violations is not a proof.
	Complete bool
	// Incomplete records the FIRST reason the exploration fell short of
	// exhausting the state space (IncompleteNone when Complete).
	Incomplete IncompleteReason
	// TerminalStates counts states where all threads halted.
	TerminalStates int
	// StuckStates counts states from which no terminal state is
	// reachable (only populated with Options.TrackProgress on a complete
	// exploration). Zero means the program is deadlock-free: every
	// reachable state has some schedule that finishes.
	StuckStates int
	// KeyBytes is the size of the search's state tables at its end: the
	// visited set (a fixed-width tuple of component ids per state, plus
	// its index's slots) and the component tables (every thread-local
	// and memory state's key with its length prefix and position, plus
	// their indexes' slots). It is an exact count, not a measurement of
	// the heap, and does not count the successor tables.
	KeyBytes int
	// tracked reports that the search recorded its state graph
	// (TrackProgress).
	tracked bool
	// hits and stepped count the transitions the search read from its
	// successor tables alone, and those it stepped some machine for (see
	// space).
	hits, stepped int
}

// DeadlockFree reports whether the exploration proved every reachable
// state can reach a terminal state. It requires TrackProgress and a
// complete exploration.
func (r Result) DeadlockFree() bool {
	return r.Complete && r.tracked && r.StuckStates == 0
}

// Sound reports whether a clean result proves the invariant: no violations
// and a complete exploration.
func (r Result) Sound() bool { return len(r.Violations) == 0 && r.Complete }

// truncate marks the result incomplete, keeping the first reason.
func (r *Result) truncate(reason IncompleteReason) {
	r.Complete = false
	if r.Incomplete == IncompleteNone {
		r.Incomplete = reason
	}
}

// ctxReason maps a context error to the matching truncation reason.
func ctxReason(err error) IncompleteReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return IncompleteDeadline
	}
	return IncompleteCanceled
}

// progress is the state graph TrackProgress records. A state is expanded
// once, and its successors counted together, so they are stored back to
// back: the i-th state expanded, from[i], has outs[i] successors, which
// follow those of the states expanded before it in succ.
type progress struct {
	from, outs []uint32
	succ       []uint32
	terminals  []uint32
}

// node is a search node: a state's number in the visited set and the
// length of the schedule that reached it.
type node struct {
	state, depth uint32
}

// step is one scheduling choice: a thread step or an internal memory
// action.
type step struct {
	internal bool // an internal memory action rather than a thread step
	index    int  // thread index, or internal-action index
}

// code packs the step into the low half of a schedule link: its index<<1,
// | 1 if it is an internal action.
func (s step) code() uint32 {
	c := uint32(s.index) << 1
	if s.internal {
		c |= 1
	}
	return c
}

// stepOf undoes step.code.
func stepOf(code uint32) step { return step{internal: code&1 != 0, index: int(code >> 1)} }

// threadStep renders a program step of thread i as Violation.Trace lists
// it.
func threadStep(i int) string { return "thread " + strconv.Itoa(i) }

// internalStep renders the i-th enabled internal action, described as
// desc, as Violation.Trace lists it.
func internalStep(i int, desc string) string {
	return "internal " + strconv.Itoa(i) + " (" + desc + ")"
}

// apply performs the step on m, a copy of the state it was chosen in.
func (s step) apply(m *program.Machine) error {
	if s.internal {
		m.Mem().Step(s.index)
		return nil
	}
	if err := m.StepThread(s.index); err != nil {
		return fmt.Errorf("explore: step thread %d: %w", s.index, err)
	}
	return nil
}

// schedules holds, by state number, the link of the step that first
// reached each state: its parent state<<32 | the step's code. State 0,
// the root, has none. A state's schedule is read back along the links,
// so it costs 8 bytes however deep it is, and no pointer; a trace's
// strings, and the descriptions of internal actions in them, are built
// only when a violation is replayed. The links are all of a search that
// its violations keep.
type schedules struct{ links table[uint64] }

// appendPath appends the codes of the steps that reach state s to dst,
// last step first.
func (l *schedules) appendPath(dst []uint32, s uint32) []uint32 {
	for s != 0 {
		link := l.links.at(s)
		dst = append(dst, uint32(link))
		s = uint32(link >> 32)
	}
	return dst
}

// replay builds state s in a fresh copy of root, the machine the search
// started in, which records the history along the way. If render is set,
// it also returns the schedule's steps, rendered as Violation.Replay lists
// them.
func (l *schedules) replay(s uint32, root *program.Machine, render bool) ([]string, *program.Machine, error) {
	path := l.appendPath(nil, s)
	m := root.Clone()
	var trace []string
	for i := len(path) - 1; i >= 0; i-- {
		st := stepOf(path[i])
		if render {
			if st.internal {
				trace = append(trace, internalStep(st.index, m.Mem().DescribeInternal(st.index)))
			} else {
				trace = append(trace, threadStep(st.index))
			}
		}
		if err := st.apply(m); err != nil {
			return nil, nil, err
		}
	}
	return trace, m, nil
}

// Exhaustive explores every schedule of the machine (program steps and
// memory-internal actions) from its current state, deduplicating states
// exactly: two states are the same when every thread's local state and the
// memory's state are (see program.Machine.AppendThreadKey and
// sim.Memory.AppendKey). The machine passed in is not modified.
func Exhaustive(m0 *program.Machine, opts Options) (Result, error) {
	return ExhaustiveCtx(context.Background(), m0, opts)
}

// ExhaustiveCtx is Exhaustive under a context: cancellation or a deadline
// truncates the exploration, returning the partial Result (Complete false,
// Incomplete reporting IncompleteCanceled or IncompleteDeadline) with a
// nil error — a truncated exploration is a weaker answer, not a failure.
// The context is checked per popped state, so truncation lands within one
// state's expansion cost.
func ExhaustiveCtx(ctx context.Context, m0 *program.Machine, opts Options) (Result, error) {
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
	traced := obs.Enabled(ctx)
	if traced {
		obs.EmitTo(ctx, obs.Event{Type: obs.EvExploreStart})
	}
	ctx, endTask := obs.TaskRegion(ctx, "explore", "exhaustive")
	sr := newSearch(m0, opts, inv)
	err := sr.depthFirst(ctx)
	endTask()
	res := sr.res
	if sr.prog != nil && res.Complete && err == nil {
		res.StuckStates = countStuck(sr.prog, sr.sp.seen.len())
	}
	res.KeyBytes = sr.sp.bytes()
	if traced {
		finishExplore(ctx, res)
	}
	return res, err
}

// finishExplore publishes an exploration's outcome to the context's
// observability destinations: per-violation events, a finish event
// carrying the counts, and aggregate counters.
func finishExplore(ctx context.Context, res Result) {
	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.Counter("explore.runs").Add(1)
		reg.Counter("explore.states").Add(int64(res.States))
		reg.Counter("explore.transitions").Add(int64(res.Transitions))
		reg.Counter("explore.violations").Add(int64(len(res.Violations)))
		reg.Counter("explore.key_bytes").Add(int64(res.KeyBytes))
	}
	for _, v := range res.Violations {
		obs.EmitTo(ctx, obs.Event{
			Type:   obs.EvViolation,
			Reason: v.Err.Error(),
			Detail: fmt.Sprintf("%d-step schedule", v.Steps),
		})
	}
	obs.EmitTo(ctx, obs.Event{
		Type:        obs.EvExploreFinish,
		States:      res.States,
		Transitions: res.Transitions,
		Verdict:     res.Incomplete.String(),
	})
}

// search is one exhaustive search's state: its options, its space, the
// result it builds, the origin its violations are replayed from (which
// holds the schedules of the states it numbers) and, under
// TrackProgress, its state graph.
type search struct {
	opts Options
	inv  Invariant
	sp   *space
	res  Result
	from *origin
	prog *progress
	// view is the machine states are shown to the invariant in, and
	// shown the components it holds, ^0 for none. Its memory is the
	// shown memory's representative, shared, not copied.
	view  *program.Machine
	shown []uint32
	// tuple is visit's buffer.
	tuple []uint32
}

func newSearch(m0 *program.Machine, opts Options, inv Invariant) *search {
	root := m0.Clone()
	root.Mem().Recorder().Discard()
	sr := &search{opts: opts, inv: inv, sp: newSpace(root),
		from: &origin{root: m0.Clone(), sched: &schedules{}},
		view: root.Clone(), shown: make([]uint32, root.NumThreads()+1)}
	for i := range sr.shown {
		sr.shown[i] = ^uint32(0)
	}
	sr.res.Complete = true
	if opts.TrackProgress {
		sr.prog = &progress{}
		sr.res.tracked = true
	}
	return sr
}

// depthFirst is the search: it visits the state on top of its stack and
// pushes the new states that state reaches, the first successor deepest,
// so the last is visited next.
func (sr *search) depthFirst(ctx context.Context) error {
	sp := sr.sp
	defer func() { sr.res.hits, sr.res.stepped = sp.hits, sp.stepped }()
	stack := []node{{}} // the root, state 0
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			sr.res.truncate(ctxReason(err))
			return nil
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stop, err := sr.visit(&n, &stack); stop {
			return err
		}
	}
	return nil
}

// visit counts node n's state into the search's result: as a violation, a
// terminal state, a state at a cap, or a state whose successors are
// transitions. It pushes a node for each successor that reaches a new
// state onto the stack, and reports whether the search is to stop.
func (sr *search) visit(n *node, stack *[]node) (stop bool, err error) {
	res, opts, sp := &sr.res, &sr.opts, sr.sp
	res.States++
	t := sp.seen.tuple(n.state)
	if bad := sr.inv(sr.show(t)); bad != nil { // not explored past
		res.Violations = append(res.Violations, Violation{Err: bad, Steps: int(n.depth), state: n.state, from: sr.from})
		if opts.StopAtFirst {
			res.truncate(IncompleteFirstViolation)
			return true, nil
		}
		return false, nil
	}
	switch {
	case sp.terminal(t):
		res.TerminalStates++
		if sr.prog != nil {
			sr.prog.terminals = append(sr.prog.terminals, n.state)
		}
		if opts.OnTerminal != nil {
			_, m, err := sr.from.sched.replay(n.state, sr.from.root, false)
			if err != nil {
				return true, err
			}
			if !opts.OnTerminal(m) {
				res.truncate(IncompleteCallbackStop)
				return true, nil
			}
		}
		return false, nil
	case int(n.depth) >= opts.MaxDepth:
		res.truncate(IncompleteMaxDepth)
		return false, nil
	case res.States >= opts.MaxStates:
		res.truncate(IncompleteMaxStates)
		return false, nil
	}
	last := len(t) - 1
	mem := t[last]
	transitions := res.Transitions
	for i, tid := range t[:last] {
		if sp.halted(i, tid) {
			continue
		}
		next, nmem, err := sp.threadStep(i, tid, mem)
		if err != nil {
			return true, err
		}
		sr.tuple = append(sr.tuple[:0], t...)
		sr.tuple[i], sr.tuple[last] = next, nmem
		sr.push(n, step{index: i}, stack)
	}
	for a := range sp.numInternal(mem) {
		nmem := sp.internalStep(mem, a)
		sr.tuple = append(sr.tuple[:0], t...)
		sr.tuple[last] = nmem
		sr.push(n, step{internal: true, index: a}, stack)
	}
	if p := sr.prog; p != nil {
		p.from = append(p.from, n.state)
		p.outs = append(p.outs, uint32(res.Transitions-transitions))
	}
	return false, nil
}

// push counts the transition st from node n to the state sr.tuple, and
// pushes a node for that state onto the stack, linked to n's, if it is
// new.
func (sr *search) push(n *node, st step, stack *[]node) {
	sr.res.Transitions++
	id, added := sr.sp.seen.add(sr.tuple)
	if sr.prog != nil {
		sr.prog.succ = append(sr.prog.succ, id)
	}
	if added {
		sr.from.sched.links.set(id, pack(n.state, st.code()))
		*stack = append(*stack, node{state: id, depth: n.depth + 1})
	}
}

// show returns the view machine in the state t, loading only the
// components it does not hold already. The memory is the representative
// itself, which the invariant must leave unchanged.
func (sr *search) show(t []uint32) *program.Machine {
	sp, n := sr.sp, len(t)-1
	for i, id := range t[:n] {
		if sr.shown[i] != id {
			sr.view.SetThreadKey(i, sp.threads[i].key(id))
			sr.shown[i] = id
		}
	}
	if sr.shown[n] != t[n] {
		sr.view.ShareMem(sp.memReps[t[n]])
		sr.shown[n] = t[n]
	}
	return sr.view
}

// countStuck reverse-reaches from the terminal states of p and counts the
// states, of the n a search numbered, that appear in an edge or as a
// terminal state and have no path to any terminal.
func countStuck(p *progress, n int) int {
	if uint64(len(p.succ)) > math.MaxUint32 {
		panic("explore: more than 2^32-1 transitions to track")
	}
	// The reverse graph, in one array: a counting pass sizes each state's
	// predecessors, a fill pass places them, and state s's end up in
	// pred[at[s]:at[s+1]].
	seen := make([]bool, n)
	at := make([]uint32, n+1)
	for _, to := range p.succ {
		at[to]++
		seen[to] = true
	}
	for s := 1; s <= n; s++ {
		at[s] += at[s-1]
	}
	pred := make([]uint32, len(p.succ))
	succ := p.succ
	for i, from := range p.from {
		if p.outs[i] > 0 {
			seen[from] = true
		}
		for _, to := range succ[:p.outs[i]] {
			at[to]--
			pred[at[to]] = from
		}
		succ = succ[p.outs[i]:]
	}
	canFinish := make([]bool, n)
	queue := append([]uint32(nil), p.terminals...)
	for _, t := range p.terminals {
		seen[t] = true
		canFinish[t] = true
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, q := range pred[at[s]:at[s+1]] {
			if !canFinish[q] {
				canFinish[q] = true
				queue = append(queue, q)
			}
		}
	}
	stuck := 0
	for s := range n {
		if seen[s] && !canFinish[s] {
			stuck++
		}
	}
	return stuck
}

// Replay re-executes a trace (as Violation.Replay returns it) from a fresh
// machine, returning the machine in the state the trace leads to. It lets
// a violation found by Exhaustive or Stochastic be reproduced and inspected
// deterministically — the recorded history, the thread states, the memory
// contents. An unparsable or inapplicable step returns an error naming it.
func Replay(m *program.Machine, trace []string) (*program.Machine, error) {
	cur := m.Clone()
	for i, step := range trace {
		var idx int
		switch {
		case len(step) > 7 && step[:7] == "thread ":
			if _, err := fmt.Sscanf(step, "thread %d", &idx); err != nil {
				return nil, fmt.Errorf("explore: replay step %d: %q: %v", i, step, err)
			}
			if err := cur.StepThread(idx); err != nil {
				return nil, fmt.Errorf("explore: replay step %d (%q): %w", i, step, err)
			}
		case len(step) > 9 && step[:9] == "internal ":
			if _, err := fmt.Sscanf(step, "internal %d", &idx); err != nil {
				return nil, fmt.Errorf("explore: replay step %d: %q: %v", i, step, err)
			}
			if idx < 0 || idx >= cur.Mem().NumInternal() {
				return nil, fmt.Errorf("explore: replay step %d (%q): internal action unavailable", i, step)
			}
			cur.Mem().Step(idx)
		default:
			return nil, fmt.Errorf("explore: replay step %d: unrecognized %q", i, step)
		}
	}
	return cur, nil
}

// Stochastic runs the machine to completion `runs` times under a seeded
// random scheduler (uniform over enabled program steps and internal
// actions), checking the invariant after every step. It reports the number
// of runs that violated the invariant and retains the first violation.
func Stochastic(mk func() (*program.Machine, error), runs int, seed int64, opts Options) (violations int, first *Violation, err error) {
	inv := opts.Invariant
	if inv == nil {
		inv = MutualExclusion
	}
	pInternal := opts.PInternal
	if pInternal == 0 {
		pInternal = 0.5
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < runs; r++ {
		m, err := mk()
		if err != nil {
			return violations, first, err
		}
		var root *program.Machine // m before the run, while no violation is kept
		if first == nil {
			root = m.Clone()
		}
		var trace []string
		bad := false
		for !m.Halted() && !bad {
			runnable := m.Runnable()
			if n := m.Mem().NumInternal(); n > 0 && (len(runnable) == 0 || rng.Float64() < pInternal) {
				ii := rng.Intn(n)
				trace = append(trace, internalStep(ii, m.Mem().DescribeInternal(ii)))
				m.Mem().Step(ii)
			} else {
				ti := runnable[rng.Intn(len(runnable))]
				if err := m.StepThread(ti); err != nil {
					return violations, first, err
				}
				trace = append(trace, threadStep(ti))
			}
			if e := inv(m); e != nil {
				violations++
				bad = true
				if first == nil {
					first = &Violation{Err: e, Steps: len(trace), from: &origin{root: root, trace: trace}}
				}
			}
		}
	}
	return violations, first, nil
}
