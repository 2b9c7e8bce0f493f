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
// machine it hands out — a violating state (Violation.State) or a
// terminal state passed to Options.OnTerminal — is built apart, by
// replaying its schedule from the machine the caller passed in, with the
// history recorded along the way; the caller may keep and inspect it.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"repro/history"
	"repro/internal/obs"
	"repro/program"
)

// Invariant checks a machine state, returning a non-nil error describing
// the violation if the state is bad. It must not change the machine, nor
// step its memory: Exhaustive passes it a machine whose memory is one of
// the search's state tables' own (see program.Machine.ShareMem), and which
// records no history; a violation's History is rebuilt after the search.
type Invariant func(*program.Machine) error

// MutualExclusion is the invariant of the paper's Section 5: at most one
// thread inside its critical section.
func MutualExclusion(m *program.Machine) error {
	if n := m.InCS(); n > 1 {
		return fmt.Errorf("mutual exclusion violated: %d threads in the critical section", n)
	}
	return nil
}

// Violation describes an invariant violation found during exploration.
type Violation struct {
	// Err is the invariant's description of what went wrong.
	Err error
	// Trace lists the choices leading to the violation, in order, e.g.
	// "thread 1" or "internal 0 (deliver p0→p1 x)".
	Trace []string
	// History is the tagged system execution history recorded along the
	// violating path — checkable against package model.
	History *history.System
	// State is the violating machine, rebuilt by replaying Trace, with
	// History recorded (safe to inspect and keep).
	State *program.Machine
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
	// Violations found (possibly truncated by StopAtFirst).
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
	// progress-tracking internals (TrackProgress only): the successors
	// of each state, by state number, and the terminal states.
	edges     [][]uint32
	terminals []uint32
	// hits and stepped count the transitions the search read from its
	// successor tables alone, and those it stepped some machine for (see
	// space).
	hits, stepped int
	// found holds the violations the search found, in order, for
	// ExhaustiveCtx to build into Violations once the search is over.
	found []found
}

// DeadlockFree reports whether the exploration proved every reachable
// state can reach a terminal state. It requires TrackProgress and a
// complete exploration.
func (r Result) DeadlockFree() bool {
	return r.Complete && r.edges != nil && r.StuckStates == 0
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

// addEdge records a transition from state from to state to.
func (r *Result) addEdge(from, to uint32) {
	for int(from) >= len(r.edges) {
		r.edges = append(r.edges, nil)
	}
	r.edges[from] = append(r.edges[from], to)
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
// so it costs 8 bytes however deep it is, and no pointer; Violation.Trace
// strings, and the descriptions of internal actions in them, are built
// only for the violations found, once the search is over (see
// buildViolations).
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
// started from, which records the history along the way.
func (l *schedules) replay(s uint32, root *program.Machine) (*program.Machine, error) {
	path := l.appendPath(nil, s)
	m := root.Clone()
	for i := len(path) - 1; i >= 0; i-- {
		if err := stepOf(path[i]).apply(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// found is a violation as a search records it: the invariant's error and
// the violating state's number. Building its Trace, History and State is
// left to buildViolations, after the search.
type found struct {
	err   error
	state uint32
}

// buildViolations builds the Violations of a search that started in root
// from what it found, in the order it found them, reading their schedules
// from sched. The schedules share
// prefixes, so they are replayed from a copy of root in one walk over
// their tree (see violationWalk). If a schedule cannot be replayed,
// buildViolations returns the violations before it and the error.
func buildViolations(fs []found, sched *schedules, root *program.Machine) ([]Violation, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	w := &violationWalk{fs: fs, ends: make([]int, len(fs)), order: make([]int, len(fs)),
		vs: make([]Violation, len(fs)), errs: make([]error, len(fs))}
	for i, f := range fs {
		start := len(w.paths)
		w.paths = sched.appendPath(w.paths, f.state)
		slices.Reverse(w.paths[start:])
		w.ends[i] = len(w.paths)
		w.order[i] = i
	}
	n := len(w.paths)
	slices.SortFunc(w.order, func(a, b int) int { return slices.Compare(w.path(a), w.path(b)) })
	w.traces = make([]string, n)
	for i := range root.NumThreads() {
		w.threads = append(w.threads, threadStep(i))
	}
	w.walk(root.Clone(), 0, len(fs), 0)
	for i, err := range w.errs {
		if err != nil {
			return w.vs[:i], err
		}
	}
	return w.vs, nil
}

// violationWalk replays the schedules of a search's violations as one
// tree: the machine reaching a shared prefix is built once, and copied
// only where schedules branch, and every step's rendering in
// Violation.Trace is built once and shared by all the traces through it.
type violationWalk struct {
	fs []found
	// paths holds each violation's schedule, oldest step first, back to
	// back, each step as its code; violation i's ends at ends[i].
	paths []uint32
	ends  []int
	// order lists the violations with their schedules in lexicographic
	// order, so that a prefix's violations are adjacent.
	order []int
	// traces backs every violation's Trace, laid out like paths.
	traces  []string
	threads []string // each thread's step as Trace lists it
	trace   []string // the rendered prefix being walked
	vs      []Violation
	errs    []error
}

// path returns violation i's schedule.
func (w *violationWalk) path(i int) []uint32 {
	start := 0
	if i > 0 {
		start = w.ends[i-1]
	}
	return w.paths[start:w.ends[i]]
}

// walk builds the violations order[lo:hi], whose schedules share their
// first d steps, from m, the state those steps reach, which it takes
// over.
func (w *violationWalk) walk(m *program.Machine, lo, hi, d int) {
	for lo < hi {
		i := w.order[lo]
		p := w.path(i)
		if len(p) == d { // a violating state; the schedules sorted after it extend no further through it
			mm := m
			if lo+1 < hi {
				mm = m.Clone()
			}
			var trace []string
			if d > 0 {
				trace = w.traces[w.ends[i]-d : w.ends[i] : w.ends[i]]
				copy(trace, w.trace[:d])
			}
			w.vs[i] = Violation{Err: w.fs[i].err, Trace: trace, History: mm.Mem().Recorder().System(), State: mm}
			lo++
			continue
		}
		code := p[d]
		g := lo + 1
		for g < hi && w.path(w.order[g])[d] == code {
			g++
		}
		st := stepOf(code)
		mm := m
		if g < hi {
			mm = m.Clone() // the schedules from g on branch off here
		}
		if st.internal {
			w.trace = append(w.trace[:d], internalStep(st.index, mm.Mem().DescribeInternal(st.index)))
		} else {
			w.trace = append(w.trace[:d], w.threads[st.index])
		}
		if err := st.apply(mm); err != nil {
			for _, k := range w.order[lo:g] {
				w.errs[k] = err
			}
		} else {
			w.walk(mm, lo, g, d+1)
		}
		lo = g
	}
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
	if opts.TrackProgress && res.Complete && err == nil {
		res.StuckStates = countStuck(res.edges, res.terminals, sr.sp.seen.len())
	}
	vs, verr := buildViolations(res.found, &sr.sched, m0)
	res.Violations, res.found = vs, nil
	if err == nil {
		err = verr
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
			Detail: fmt.Sprintf("%d-step schedule", len(v.Trace)),
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
// result it builds and the schedules of the states it numbers.
type search struct {
	m0    *program.Machine
	opts  Options
	inv   Invariant
	sp    *space
	res   Result
	sched schedules
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
	sr := &search{m0: m0, opts: opts, inv: inv, sp: newSpace(root),
		view: root.Clone(), shown: make([]uint32, root.NumThreads()+1)}
	for i := range sr.shown {
		sr.shown[i] = ^uint32(0)
	}
	sr.res.Complete = true
	if opts.TrackProgress {
		sr.res.edges = [][]uint32{}
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
		res.found = append(res.found, found{err: bad, state: n.state})
		if opts.StopAtFirst {
			res.truncate(IncompleteFirstViolation)
			return true, nil
		}
		return false, nil
	}
	switch {
	case sp.terminal(t):
		res.TerminalStates++
		if opts.TrackProgress {
			res.terminals = append(res.terminals, n.state)
		}
		if opts.OnTerminal != nil {
			m, err := sr.sched.replay(n.state, sr.m0)
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
	return false, nil
}

// push counts the transition st from node n to the state sr.tuple, and
// pushes a node for that state onto the stack, linked to n's, if it is
// new.
func (sr *search) push(n *node, st step, stack *[]node) {
	sr.res.Transitions++
	id, added := sr.sp.seen.add(sr.tuple)
	if sr.opts.TrackProgress {
		sr.res.addEdge(n.state, id)
	}
	if added {
		sr.sched.links.set(id, pack(n.state, st.code()))
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

// countStuck reverse-reaches from the terminal states and counts the
// states, of the n a search numbered, that appear in an edge or as a
// terminal state and have no path to any terminal.
func countStuck(edges [][]uint32, terminals []uint32, n int) int {
	rev := make([][]uint32, n)
	seen := make([]bool, n)
	for from, tos := range edges {
		if len(tos) > 0 {
			seen[from] = true
		}
		for _, to := range tos {
			rev[to] = append(rev[to], uint32(from))
			seen[to] = true
		}
	}
	canFinish := make([]bool, n)
	queue := append([]uint32(nil), terminals...)
	for _, t := range terminals {
		seen[t] = true
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
	for s := range n {
		if seen[s] && !canFinish[s] {
			stuck++
		}
	}
	return stuck
}

// Replay re-executes a trace (as recorded in Violation.Trace) from a fresh
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
					first = &Violation{Err: e, Trace: trace, History: m.Mem().Recorder().System(), State: m}
				}
			}
		}
	}
	return violations, first, nil
}
