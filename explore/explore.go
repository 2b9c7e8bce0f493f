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
// Exhaustive explores in parallel by default (Options.Workers): frontier
// states are expanded concurrently level by level and the results merged
// sequentially in frontier order, so violations, traces and counts are
// deterministic at every worker count, and complete explorations report
// exactly the sequential search's counts. Workers=1 selects a depth-first
// search.
//
// Both searches keep a state as a tuple of ids of its components — each
// thread's local state and the memory's state, interned once each — and
// find successors through memos of the thread steps and internal actions
// already taken, so most transitions step no machine (space.go). The
// machines a search steps and checks record no history
// (sim.Recorder.Discard): a state's history depends only on the root and
// the schedule that reached it. A search hands out none of them. Each
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
	"repro/internal/pool"
	"repro/program"
)

// Invariant checks a machine state, returning a non-nil error describing
// the violation if the state is bad. It must not change the machine.
// Exhaustive passes it machines built from the search's state tables,
// which record no history; a violation's History is rebuilt after the
// search.
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
	// Workers sizes Exhaustive's expansion pool: 0 (the zero value) uses
	// one worker per CPU, 1 selects the sequential depth-first search, and
	// larger values set the pool size explicitly. Results are
	// deterministic at every setting, and on complete explorations the
	// counts (States, Transitions, TerminalStates) are identical to the
	// sequential search's; Stochastic ignores it.
	Workers int
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
	// the heap, and complete explorations report the same figure at
	// every worker count while the memory's locations number fewer than
	// 128.
	KeyBytes int
	// progress-tracking internals (TrackProgress only): the successors
	// of each state, by state number, and the terminal states.
	edges     [][]uint32
	terminals []uint32
	// hits and stepped count the transitions the search found in a memo
	// and the memo misses it stepped.
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

// node is a search node: a state's number in the visited set, the last
// step of the schedule that reached it, and that schedule's length.
type node struct {
	state uint32
	step  *step
	depth int
}

// step is one scheduling choice, linked to the step before it. Nodes share
// their schedule's prefix through the parent pointers, so a node costs one
// step however deep it is; Violation.Trace strings, and the descriptions
// of internal actions in them, are built only for the violations found,
// once the search is over (see buildViolations).
type step struct {
	parent   *step
	internal bool // an internal memory action rather than a thread step
	index    int  // thread index, or internal-action index
}

// stepBlock is the number of steps in each of a stepSlab's arrays.
const stepBlock = 1024

// stepSlab hands out kept children's steps from shared arrays, so a kept
// child costs no heap object of its own. Steps are never freed one by
// one: an array lives while any step in it is on a live schedule.
type stepSlab []step

// add stores st and returns its address, which stays valid: a full slab
// moves on to a new array instead of growing the old one.
func (b *stepSlab) add(st step) *step {
	if len(*b) == cap(*b) {
		*b = make([]step, 0, stepBlock)
	}
	*b = append(*b, st)
	return &(*b)[len(*b)-1]
}

// threadStep renders a program step of thread i as Violation.Trace lists
// it.
func threadStep(i int) string { return "thread " + strconv.Itoa(i) }

// internalStep renders the i-th enabled internal action, described as
// desc, as Violation.Trace lists it.
func internalStep(i int, desc string) string {
	return "internal " + strconv.Itoa(i) + " (" + desc + ")"
}

// apply performs the step on m, a copy of the state it was chosen in.
func (s *step) apply(m *program.Machine) error {
	if s.internal {
		m.Mem().Step(s.index)
		return nil
	}
	if err := m.StepThread(s.index); err != nil {
		return fmt.Errorf("explore: step thread %d: %w", s.index, err)
	}
	return nil
}

// replay builds the state the schedule ending in s reaches in a fresh
// copy of root, the machine the search started from, which records the
// history along the way.
func (s *step) replay(root *program.Machine) (*program.Machine, error) {
	var steps []*step
	for p := s; p != nil; p = p.parent {
		steps = append(steps, p)
	}
	m := root.Clone()
	for i := len(steps) - 1; i >= 0; i-- {
		if err := steps[i].apply(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// found is a violation as a search records it: the invariant's error and
// the last step of the schedule that reached it. Building its Trace,
// History and State is left to buildViolations, after the search.
type found struct {
	err  error
	step *step
}

// buildViolations builds the Violations of a search that started in root
// from what it found, in the order it found them. The schedules share
// prefixes, so they are replayed from a copy of root in one walk over
// their tree (see violationWalk). If a schedule cannot be replayed,
// buildViolations returns the violations before it and the error.
func buildViolations(fs []found, root *program.Machine) ([]Violation, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	w := &violationWalk{fs: fs, ends: make([]int, len(fs)), order: make([]int, len(fs)),
		vs: make([]Violation, len(fs)), errs: make([]error, len(fs))}
	n := 0
	for i, f := range fs {
		for p := f.step; p != nil; p = p.parent {
			n++
		}
		w.ends[i] = n
		w.order[i] = i
	}
	w.paths = make([]uint32, n)
	for i, f := range fs {
		j := w.ends[i]
		for p := f.step; p != nil; p = p.parent {
			j--
			w.paths[j] = uint32(p.index) << 1
			if p.internal {
				w.paths[j] |= 1
			}
		}
	}
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
	// back, each step as its index<<1 | 1 if it is an internal action;
	// violation i's ends at ends[i].
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
		st := step{internal: code&1 != 0, index: int(code >> 1)}
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
// The context is checked per popped state (sequential) or per expansion
// (parallel), so truncation lands within one state's expansion cost.
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
	w := pool.Size(opts.Workers)
	traced := obs.Enabled(ctx)
	if traced {
		obs.EmitTo(ctx, obs.Event{Type: obs.EvExploreStart, Worker: w})
	}
	ctx, endTask := obs.TaskRegion(ctx, "explore", "exhaustive")
	sr := newSearch(m0, opts, inv)
	err := func() error {
		defer endTask()
		if w > 1 {
			return sr.parallel(ctx, w)
		}
		return sr.depthFirst(ctx)
	}()
	res := sr.res
	if opts.TrackProgress && res.Complete && err == nil {
		res.StuckStates = countStuck(res.edges, res.terminals, sr.sp.seen.len())
	}
	vs, verr := buildViolations(res.found, m0)
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

// depthFirst is the sequential depth-first search: it settles each state
// right after expanding it, and pushes the new states it reaches, the
// first successor deepest, so the last is expanded next.
func (sr *search) depthFirst(ctx context.Context) error {
	s := newScratch(sr.root)
	defer func() { sr.res.hits, sr.res.stepped = s.hits, s.stepped }()
	stack := []node{{}} // the root, state 0
	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			sr.res.truncate(ctxReason(err))
			return nil
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.reset()
		exp := s.expand(sr, &n, sr.res.States+1 >= sr.opts.MaxStates, false)
		if stop, err := sr.settle(&n, &exp, &stack); stop {
			return err
		}
	}
	return nil
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
			internal := m.Mem().Internal()
			if len(internal) > 0 && (len(runnable) == 0 || rng.Float64() < pInternal) {
				ii := rng.Intn(len(internal))
				m.Mem().Step(ii)
				trace = append(trace, internalStep(ii, internal[ii]))
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
