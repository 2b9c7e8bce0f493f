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
package explore

import (
	"context"
	"errors"
	"fmt"

	"math/rand"

	"repro/history"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/program"
)

// Invariant checks a machine state, returning a non-nil error describing
// the violation if the state is bad.
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
	// State is the violating machine (a clone; safe to inspect).
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
	// Exhaustive. The machine is a dead-end clone; the callback may
	// inspect it freely. Returning false stops the exploration.
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
// search's frontier is built lazily: m stays nil, and parent holds the
// machine step is applied to, until the node's own expansion builds it.
type node struct {
	m      *program.Machine
	parent *program.Machine
	step   *step
	depth  int
}

// step is one scheduling choice, linked to the step before it. Nodes share
// their schedule's prefix through the parent pointers, so a node costs one
// step however deep it is; Violation.Trace strings, and the descriptions
// of internal actions in them, are built only when a violation is
// reported.
type step struct {
	parent   *step
	internal bool // an internal memory action rather than a thread step
	index    int  // thread index, or internal-action index
}

// render renders the step as it appears in Violation.Trace, taken in
// state m.
func (s step) render(m *program.Machine) string {
	if s.internal {
		return fmt.Sprintf("internal %d (%s)", s.index, m.Mem().Internal()[s.index])
	}
	return fmt.Sprintf("thread %d", s.index)
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

// trace renders the schedule ending in s, oldest step first, replaying
// it from root, the state the search started in, so that each internal
// action is described as the state it was taken in offered it.
func (s *step) trace(root *program.Machine) ([]string, error) {
	var steps []*step
	for p := s; p != nil; p = p.parent {
		steps = append(steps, p)
	}
	if len(steps) == 0 {
		return nil, nil
	}
	out := make([]string, len(steps))
	m := root.Clone()
	for i := range steps {
		st := steps[len(steps)-1-i]
		out[i] = st.render(m)
		if err := st.apply(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// violation reports the invariant failure err at node n of a search that
// started in root.
func (n node) violation(err error, root *program.Machine) (Violation, error) {
	trace, terr := n.step.trace(root)
	if terr != nil {
		return Violation{}, terr
	}
	return Violation{
		Err:     err,
		Trace:   trace,
		History: n.m.Mem().Recorder().System(),
		State:   n.m,
	}, nil
}

// scratch is one searcher's reusable successor storage: the machine each
// successor is stepped in and the buffer its key is built in. Most
// successors reach a state the search has already visited, so a successor
// is keyed before anything is allocated for it; only one the search keeps
// takes the machine over, and the next successor is then stepped in fresh
// storage.
type scratch struct {
	m   *program.Machine
	key []byte
	// The parallel search's expansions of one chunk record their
	// successors here, back to back, for the chunk's merge.
	keys     []byte
	children []childEdge
}

// successors steps each of n's successors in s, program steps first, then
// internal actions, in index order, and passes the stepped machine, its
// key and the step that produced it to yield. yield reports whether it
// keeps the machine; the key, and a machine yield does not keep, are
// overwritten by the next successor. The step is a value, so a child the
// search drops costs no step allocation.
func (s *scratch) successors(n node, yield func(m *program.Machine, key []byte, st step) bool) error {
	visit := func(st step) error {
		m := n.m.CloneInto(s.m)
		if err := st.apply(m); err != nil {
			return err
		}
		s.key = m.AppendKey(s.key[:0])
		s.m = m
		if yield(m, s.key, st) {
			s.m = nil
		}
		return nil
	}
	for _, ti := range n.m.Runnable() {
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

// child returns the search node for a kept successor of n.
func (n node) child(m *program.Machine, st step) node {
	return node{m: m, step: &st, depth: n.depth + 1}
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
func exhaustiveSeq(ctx context.Context, m0 *program.Machine, opts Options, inv Invariant, seen *keySet) (Result, error) {
	var res Result
	res.Complete = true
	if opts.TrackProgress {
		res.edges = map[string][]string{}
	}
	stack := []node{{m: m0.Clone()}}
	var s scratch

	for len(stack) > 0 {
		if err := ctx.Err(); err != nil {
			res.truncate(ctxReason(err))
			return res, nil
		}
		n := stack[len(stack)-1]
		stack[len(stack)-1] = node{} // let the popped machine be collected
		stack = stack[:len(stack)-1]
		res.States++
		var nKey string
		if opts.TrackProgress {
			s.key = n.m.AppendKey(s.key[:0])
			nKey = string(s.key)
		}

		if err := inv(n.m); err != nil {
			v, verr := n.violation(err, m0)
			if verr != nil {
				return res, verr
			}
			res.Violations = append(res.Violations, v)
			if opts.StopAtFirst {
				res.truncate(IncompleteFirstViolation)
				return res, nil
			}
			continue // do not explore past a violation
		}
		if n.m.Halted() && n.m.Mem().NumInternal() == 0 {
			res.TerminalStates++
			if opts.TrackProgress {
				res.terminals = append(res.terminals, nKey)
			}
			if opts.OnTerminal != nil && !opts.OnTerminal(n.m) {
				res.truncate(IncompleteCallbackStop)
				return res, nil
			}
			continue
		}
		if n.depth >= opts.MaxDepth {
			res.truncate(IncompleteMaxDepth)
			continue
		}
		if res.States >= opts.MaxStates {
			res.truncate(IncompleteMaxStates)
			continue
		}

		err := s.successors(n, func(child *program.Machine, key []byte, st step) bool {
			res.Transitions++
			if opts.TrackProgress {
				res.edges[nKey] = append(res.edges[nKey], string(key))
			}
			if !seen.add(key) {
				return false
			}
			stack = append(stack, n.child(child, st))
			return true
		})
		if err != nil {
			return res, err
		}
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
				trace = append(trace, fmt.Sprintf("internal %d (%s)", ii, internal[ii]))
			} else {
				ti := runnable[rng.Intn(len(runnable))]
				if err := m.StepThread(ti); err != nil {
					return violations, first, err
				}
				trace = append(trace, fmt.Sprintf("thread %d", ti))
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
