// Package explore model-checks guest programs on simulated memories: it
// exhaustively enumerates every interleaving of program steps and memory-
// internal actions (deliveries, buffer drains), deduplicating states by
// their exact keys, and checks an invariant — mutual exclusion, for the
// paper's Section 5 — in every reachable state. It also provides a
// stochastic runner for workloads whose state space is too large to
// exhaust.
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
// exactly the sequential search's counts. Workers=1 selects the original
// depth-first search, kept as the oracle the differential tests compare
// against.
//
// Both searches step successors in a reused scratch machine and recycle
// the machines of states they are done with, so expansion allocates
// almost nothing once a search is under way. The machines a search builds
// record no history (sim.Recorder.Discard): a state's history depends
// only on the root and the schedule that reached it. A search owns and
// recycles every machine it builds. Each machine it hands out — a
// violating state (Violation.State) or a terminal state passed to
// Options.OnTerminal — is a fresh one, rebuilt by replaying its schedule
// from the machine the caller passed in, with the history recorded along
// the way; the caller may keep and inspect it. The depth-first search
// recycles a state's machine once its successors are stepped; parallel.go
// describes when the breadth-first one does.
package explore

import (
	"context"
	"errors"
	"fmt"

	"math/rand"
	"strconv"

	"repro/history"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/program"
)

// Invariant checks a machine state, returning a non-nil error describing
// the violation if the state is bad. Exhaustive passes it the machines it
// searches, which record no history; a violation's History is rebuilt
// after the search.
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
	// KeyBytes is the size of the visited-state set at the end of the
	// search: every state key with its length prefix, plus the index's
	// slots. It is an exact count, not a measurement of the heap, and
	// complete explorations report the same figure at every worker
	// count while the memory's locations number fewer than 128.
	KeyBytes int
	// progress-tracking internals (TrackProgress only).
	edges     map[string][]string
	terminals []string
	// stepped counts the successors the search stepped, whether or not
	// it kept them.
	stepped int
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

// node is a search node: a machine state, the last step of the schedule
// that reached it, and that schedule's length. A node on the parallel
// search's frontier is built lazily: m stays nil, and parent points to the
// frontier node whose machine step is applied to, until the node's own
// expansion builds it. kids counts the node's kept children that have not
// yet been built from its machine; the child that brings it to zero
// recycles the machine. The merge sets kids and the next level's workers
// decrement it atomically; the pool's joins order the two.
type node struct {
	m      *program.Machine
	parent *node
	step   *step
	depth  int
	kids   int32
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

// render renders the step as it appears in Violation.Trace, taken in
// state m.
func (s step) render(m *program.Machine) string {
	if s.internal {
		return internalStep(s.index, m.Mem().DescribeInternal(s.index))
	}
	return threadStep(s.index)
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
// history along the way. With trace it also renders the schedule, oldest
// step first, each internal action described as the state it was taken in
// offered it.
func (s *step) replay(root *program.Machine, trace bool) (*program.Machine, []string, error) {
	var steps []*step
	for p := s; p != nil; p = p.parent {
		steps = append(steps, p)
	}
	var out []string
	if trace && len(steps) > 0 {
		out = make([]string, len(steps))
	}
	m := root.Clone()
	for i := range steps {
		st := steps[len(steps)-1-i]
		if trace {
			out[i] = st.render(m)
		}
		if err := st.apply(m); err != nil {
			return nil, nil, err
		}
	}
	return m, out, nil
}

// found is a violation as a search records it: the invariant's error and
// the last step of the schedule that reached it. Building its Trace,
// History and State is left to buildViolations, after the search.
type found struct {
	err  error
	step *step
}

// buildViolations builds the Violations of a search that started in root
// from what it found, in the order it found them, on up to workers
// goroutines. Each one's schedule is replayed from root, which nothing
// changes meanwhile. If a schedule cannot be replayed, buildViolations
// returns the violations before it and the error.
func buildViolations(fs []found, root *program.Machine, workers int) ([]Violation, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	vs := make([]Violation, len(fs))
	errs := make([]error, len(fs))
	if err := pool.Indexed(workers, len(fs), func(_, i int) {
		m, trace, err := fs[i].step.replay(root, true)
		if errs[i] = err; err == nil {
			vs[i] = Violation{Err: fs[i].err, Trace: trace, History: m.Mem().Recorder().System(), State: m}
		}
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return vs[:i], err
		}
	}
	return vs, nil
}

// scratch is one searcher's reusable successor storage: the machine each
// successor is stepped in, the buffer its key is built in, and the free
// list of machines the searcher has recycled. Most successors reach a
// state the search has already visited, so a successor is keyed before
// anything is allocated for it; only one the search keeps takes the
// machine over, and the next successor is then stepped in a recycled one.
type scratch struct {
	m   *program.Machine
	key []byte
	// free holds machines no search node uses any more, for the next
	// state to be built in.
	free []*program.Machine
	// stepped counts the successors stepped, kept or not.
	stepped int
	// The parallel search's expansions of one chunk record their
	// successors here, back to back, for the chunk's merge.
	keys     []byte
	children []childEdge
}

// take returns a recycled machine to build a state in, or nil, which
// CloneInto replaces with fresh storage, when the free list is empty.
func (s *scratch) take() *program.Machine {
	if len(s.free) == 0 {
		return nil
	}
	m := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return m
}

// recycle puts m, which nothing uses any more, on the free list.
func (s *scratch) recycle(m *program.Machine) { s.free = append(s.free, m) }

// successors steps each of n's successors in s, program steps first, then
// internal actions, in index order, and passes the stepped machine, its
// key and the step that produced it to yield. yield reports whether it
// keeps the machine; the key, and a machine yield does not keep, are
// overwritten by the next successor. The step is a value, so a child the
// search drops costs no step allocation.
func (s *scratch) successors(n *node, yield func(m *program.Machine, key []byte, st step) bool) error {
	visit := func(st step) error {
		if s.m == nil {
			s.m = s.take()
		}
		m := n.m.CloneInto(s.m)
		if err := st.apply(m); err != nil {
			return err
		}
		s.stepped++
		s.key = m.AppendKey(s.key[:0])
		s.m = m
		if yield(m, s.key, st) {
			s.m = nil
		}
		return nil
	}
	for ti := range n.m.NumThreads() {
		if n.m.ThreadHalted(ti) {
			continue
		}
		if err := visit(step{parent: n.step, index: ti}); err != nil {
			return err
		}
	}
	for ii, k := 0, n.m.Mem().NumInternal(); ii < k; ii++ {
		if err := visit(step{parent: n.step, internal: true, index: ii}); err != nil {
			return err
		}
	}
	return nil
}

// Exhaustive explores every schedule of the machine (program steps and
// memory-internal actions) from its current state, deduplicating states by
// key (see program.Machine.AppendKey). The machine passed in is not
// modified.
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
	// The set of visited states starts with the root's key; the searches
	// add every state they reach.
	seen := newKeySet()
	seen.add(m0.AppendKey(nil))
	res, err := func() (Result, error) {
		defer endTask()
		if w > 1 {
			return exhaustiveParallel(ctx, m0, opts, inv, w, seen)
		}
		return exhaustiveSeq(ctx, m0, opts, inv, seen)
	}()
	vs, verr := buildViolations(res.found, m0, w)
	res.Violations, res.found = vs, nil
	if err == nil {
		err = verr
	}
	res.KeyBytes = seen.bytes()
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

// exhaustiveSeq is the sequential depth-first search — the oracle the
// parallel engine's differential tests compare against.
func exhaustiveSeq(ctx context.Context, m0 *program.Machine, opts Options, inv Invariant, seen *keySet) (res Result, err error) {
	res.Complete = true
	if opts.TrackProgress {
		res.edges = map[string][]string{}
	}
	root := m0.Clone()
	root.Mem().Recorder().Discard()
	stack := []node{{m: root}}
	var s scratch
	var steps stepSlab
	defer func() { res.stepped = s.stepped }()

	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			res.truncate(ctxReason(err))
			return res, nil
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.States++
		var nKey string
		if opts.TrackProgress {
			s.key = n.m.AppendKey(s.key[:0])
			nKey = string(s.key)
		}

		switch bad := inv(n.m); {
		case bad != nil: // not explored past
			res.found = append(res.found, found{err: bad, step: n.step})
			if opts.StopAtFirst {
				res.truncate(IncompleteFirstViolation)
				return res, nil
			}
		case n.m.Halted() && n.m.Mem().NumInternal() == 0:
			res.TerminalStates++
			if opts.TrackProgress {
				res.terminals = append(res.terminals, nKey)
			}
			if opts.OnTerminal != nil {
				t, _, err := n.step.replay(m0, false)
				if err != nil {
					return res, err
				}
				if !opts.OnTerminal(t) {
					res.truncate(IncompleteCallbackStop)
					return res, nil
				}
			}
		case n.depth >= opts.MaxDepth:
			res.truncate(IncompleteMaxDepth)
		case res.States >= opts.MaxStates:
			res.truncate(IncompleteMaxStates)
		default:
			err = s.successors(&n, func(child *program.Machine, key []byte, st step) bool {
				res.Transitions++
				if opts.TrackProgress {
					res.edges[nKey] = append(res.edges[nKey], string(key))
				}
				if !seen.add(key) {
					return false
				}
				stack = append(stack, node{m: child, step: steps.add(st), depth: n.depth + 1})
				return true
			})
			if err != nil {
				return res, err
			}
		}
		s.recycle(n.m)
	}
	if opts.TrackProgress && res.Complete {
		res.StuckStates = countStuck(res.edges, res.terminals)
	}
	return res, nil
}

// countStuck reverse-reaches from the terminal states and counts states
// with no path to any terminal.
func countStuck(edges map[string][]string, terminals []string) int {
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
