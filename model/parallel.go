package model

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/history"
	"repro/internal/budget"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/order"
)

// This file is the model layer of the parallel enumeration engine. Every
// spec that enumerates mutual-consistency structures — write orders
// (TSO, TSO-ax), coherence orders (PC, PCG, RC, WO, Causal+Coh) or labeled
// coherence orders (Causal+LCoh) — funnels its candidate space through one
// of the search helpers below. With workers == 1 the helpers run the
// original sequential loops (the oracle the differential tests compare
// against); otherwise the candidate space is sharded across a worker pool
// (internal/perm, internal/pool) and the first shard to produce a witness
// or an error cancels every other shard via context.
//
// The helpers are verdict-deterministic: parallel and sequential runs agree
// on whether a witness exists, though WHICH witness is found may depend on
// scheduling — any witness independently verifies (VerifyWitness), so the
// verdict, not the certificate, is the contract.
//
// Each check owns one run: the context, the worker knob, and a
// budget meter shared by every worker of that check. Candidates are charged
// to the meter before they are tested, search nodes inside the view solver
// are charged at a stride cadence, and when the meter latches a stop the
// *budget.StopError unwinds the enumeration and finish converts it into an
// Unknown verdict at the public boundary.

// smallSpace is the candidate-count floor below which the search helpers
// skip the pool: sharding a dozen candidates costs more than testing them.
const smallSpace = 512

// run is the per-check state shared by a checker's enumeration: the
// caller's context, the resolved worker knob, the budget meter every
// worker charges, and the observability probe (nil when the context
// carries no sink or registry — the un-instrumented fast path).
type run struct {
	ctx     context.Context
	meter   *budget.Meter
	workers int
	probe   *obs.Probe
	endTask func()
	// route is the context's RouteMode, resolved once: RouteAuto engages
	// the polynomial fast paths and enumeration pre-passes (fastpath.go),
	// RouteEnumerate keeps the check on the pure enumeration oracle.
	route RouteMode
	// arena recycles the candidate-local Relation clones the enumerating
	// checkers build per candidate (prec = base ∪ chain); the solver copies
	// the precedence into its own bitmasks, so a released buffer is free
	// for the next candidate on any worker.
	arena sync.Pool
	// frontier is raised (atomic max, flushed once per view search) to the
	// deepest partial linearization any solver of this check reached — the
	// constraint frontier reported by forbidden and Unknown verdicts.
	frontier atomic.Int64
	// views holds each processor's δp = w operation set
	// (history.System.ViewSets), built once per check.
	views [][]history.OpID
}

// newRun builds the per-check state for one check, adopting any Budget
// attached to the context and starting the check's probe. When nothing can
// stop the check — no budget, no deadline, no cancellation — the meter
// stays nil, which every layer treats as open loop: checks under a bare
// context.Background then pay nothing over the pre-budget code (and report
// zero Progress); likewise an un-instrumented context leaves the probe nil.
func newRun(ctx context.Context, name string, workers int, s *history.System) *run {
	r := &run{ctx: ctx, workers: workers, route: RouteFromContext(ctx), views: s.ViewSets()}
	r.probe = obs.Start(ctx, name, s.NumOps(), s.NumProcs())
	r.ctx, r.endTask = obs.TaskRegion(ctx, "check", name)
	r.arm()
	return r
}

// cloneRel returns a copy of src drawn from the run's arena, to be handed
// back with releaseRel once the candidate it serves has been tested.
func (r *run) cloneRel(src *order.Relation) *order.Relation {
	if v := r.arena.Get(); v != nil {
		rel := v.(*order.Relation)
		rel.CopyFrom(src)
		return rel
	}
	return src.Clone()
}

// releaseRel recycles a candidate-local relation. Callers must not retain
// rel afterwards; the view solver copies what it needs, so release is safe
// immediately after solveViews returns.
func (r *run) releaseRel(rel *order.Relation) {
	if rel != nil {
		r.arena.Put(rel)
	}
}

// instrumented reports whether the check carries a live probe; checkers
// build prune-attribution part lists and per-candidate ingredient
// relations only when it does, so the nil path allocates nothing extra.
func (r *run) instrumented() bool { return r.probe != nil }

// solveViews runs the shared per-processor view subproblems under this
// run's meter, probe, frontier, and the given prune-attribution parts
// (pass nil when not instrumented). It returns nil (and no error) if any
// processor has no view.
func (r *run) solveViews(s *history.System, prec *order.Relation, parts []search.Part) (map[history.Proc]history.View, error) {
	views := make(map[history.Proc]history.View, s.NumProcs())
	for p := 0; p < s.NumProcs(); p++ {
		proc := history.Proc(p)
		v, ok, err := search.FindView(r.problem(s, r.views[p], prec, parts))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		views[proc] = v
	}
	return views, nil
}

// problem assembles a view-existence problem wired to this run.
func (r *run) problem(s *history.System, ops []history.OpID, prec *order.Relation, parts []search.Part) search.Problem {
	return search.Problem{Sys: s, Ops: ops, Prec: prec, Meter: r.meter,
		Probe: r.probe, Parts: parts, Frontier: &r.frontier}
}

// arm attaches a meter when the context carries anything that could stop
// the check. Kept out of newRun so newRun inlines and an open-loop run can
// stay on the caller's stack.
func (r *run) arm() {
	b, hasBudget := BudgetFromContext(r.ctx)
	_, hasDeadline := r.ctx.Deadline()
	if hasBudget || hasDeadline || r.ctx.Done() != nil {
		r.meter = budget.New(r.ctx, b.MaxCandidates, b.MaxNodes, b.Deadline)
	}
}

// progress snapshots the meter's counters and the frontier for the
// verdict.
func (r *run) progress() Progress {
	return Progress{Candidates: r.meter.Candidates(), Nodes: r.meter.Nodes(),
		Frontier: int(r.frontier.Load())}
}

// finish converts a search outcome into the public three-valued Verdict:
// a witness is Allowed (sound even if the budget tripped concurrently — the
// witness independently verifies), a *budget.StopError is Unknown with the
// mapped reason, any other error passes through, and a clean exhaustion is
// a rejection. It also closes out the probe: budget_stop / witness /
// run_finish events and the check's duration histogram.
func (r *run) finish(w *Witness, err error) (Verdict, error) {
	defer r.endTask()
	if err != nil {
		var stop *budget.StopError
		if errors.As(err, &stop) {
			p := r.progress()
			r.probe.BudgetStop(stop.Reason.String(), p.Candidates, p.Nodes, p.Frontier)
			r.probe.Finish("unknown", p.Candidates, p.Nodes, p.Frontier)
			return Verdict{Unknown: unknownReason(stop.Reason), Progress: p}, nil
		}
		return rejected, err
	}
	p := r.progress()
	if w != nil {
		r.probe.Witness(p.Candidates, p.Nodes)
		r.probe.Finish("allowed", p.Candidates, p.Nodes, p.Frontier)
		return Verdict{Allowed: true, Witness: w, Progress: p}, nil
	}
	r.probe.Finish("forbidden", p.Candidates, p.Nodes, p.Frontier)
	return Verdict{Progress: p}, nil
}

// wrapTest charges one candidate to the meter before each test and
// reports it to the probe; the *budget.StopError returned once the meter
// latches aborts the enumeration through the ordinary error path. An
// open-loop, un-instrumented run returns test unwrapped.
func (r *run) wrapTest(test func(ord []int) (*Witness, error)) func(ord []int) (*Witness, error) {
	if r.meter == nil && r.probe == nil {
		return test
	}
	var seq atomic.Int64
	return func(ord []int) (*Witness, error) {
		if r.probe != nil {
			r.probe.Candidate(seq.Add(1))
		}
		if r.meter != nil {
			if err := r.meter.AddCandidate(); err != nil {
				return nil, err
			}
		}
		return test(ord)
	}
}

// capture is the first-witness (or first-error) slot a parallel search's
// shards race to fill. The winner's timestamp feeds the cancellation-
// latency histogram: settle observes the gap between the race being
// decided and the pool going quiet.
type capture struct {
	mu      sync.Mutex
	witness *Witness
	err     error
	at      time.Time
}

// set records the outcome if none is recorded yet and reports whether this
// call won the race.
func (c *capture) set(w *Witness, err error) {
	c.mu.Lock()
	if c.witness == nil && c.err == nil {
		c.witness, c.err = w, err
		c.at = time.Now()
	}
	c.mu.Unlock()
}

func (c *capture) result() (*Witness, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	return c.witness, nil
}

// settle reconciles a parallel enumeration's three outcome channels — the
// capture slot, the pool's structured error, and the exhaustion flag —
// into a single (witness, error) pair. An enumeration that stopped early
// with no witness, no worker fault and no latched budget stop was cancelled
// externally between meter polls; report it as a Canceled stop rather than
// a silent (unsound) rejection.
func (r *run) settle(c *capture, exhausted bool, poolErr error) (*Witness, error) {
	w, err := c.result()
	if w != nil || err != nil {
		if r.probe != nil && !c.at.IsZero() {
			// settle runs after the pool has fully wound down, so this is
			// the first-outcome-to-quiet cancellation latency.
			r.probe.CancelLatency(time.Since(c.at))
		}
		return w, err
	}
	if poolErr != nil {
		return nil, poolErr
	}
	if exhausted {
		return nil, nil
	}
	if err := r.meter.Poll(); err != nil {
		return nil, err
	}
	return nil, &budget.StopError{Reason: budget.Canceled, Candidates: r.meter.Candidates(), Nodes: r.meter.Nodes()}
}

// searchLinearExtensions applies test to every linear extension of `before`
// over n items until one returns a witness or an error. test receives a
// reused index slice and must copy anything it retains; in parallel runs it
// is called from multiple goroutines and must be safe for concurrent use
// (every checker's test builds candidate-local state, so this holds by
// construction).
func (r *run) searchLinearExtensions(n int, before func(a, b int) bool, test func(ord []int) (*Witness, error)) (*Witness, error) {
	parallel := pool.Size(r.workers) > 1 && perm.CountLinearExtensionsUpTo(n, before, smallSpace) >= smallSpace
	return r.search(parallel, test,
		func(yield func([]int) bool) { perm.LinearExtensions(n, before, yield) },
		func(ctx context.Context, yield func([]int) bool) (bool, error) {
			return perm.LinearExtensionsParallel(ctx, r.workers, n, before, yield)
		})
}

// searchProducts applies test to every index vector of the cartesian
// product of sizes until one returns a witness or an error, with the same
// reuse and concurrency contract as searchLinearExtensions.
func (r *run) searchProducts(sizes []int, test func(idx []int) (*Witness, error)) (*Witness, error) {
	total := 1
	for _, s := range sizes {
		if total *= s; total >= smallSpace {
			break
		}
	}
	return r.search(pool.Size(r.workers) > 1 && total >= smallSpace, test,
		func(yield func([]int) bool) { perm.Products(sizes, yield) },
		func(ctx context.Context, yield func([]int) bool) (bool, error) {
			return perm.ProductsParallel(ctx, r.workers, sizes, yield)
		})
}

// search applies test to the candidates a space yields until one returns a
// witness or an error: in order through seq, or, when parallel, sharded
// through par under a context the first outcome cancels.
func (r *run) search(parallel bool, test func([]int) (*Witness, error),
	seq func(yield func([]int) bool),
	par func(ctx context.Context, yield func([]int) bool) (exhausted bool, err error)) (*Witness, error) {
	test = r.wrapTest(test)
	if !parallel {
		var (
			witness *Witness
			err     error
		)
		seq(func(x []int) bool {
			witness, err = test(x)
			return witness == nil && err == nil
		})
		return witness, err
	}
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	var c capture
	exhausted, poolErr := par(ctx, func(x []int) bool {
		w, err := test(x)
		if w != nil || err != nil {
			c.set(w, err)
			return false
		}
		return true
	})
	return r.settle(&c, exhausted, poolErr)
}

// searchCoherence enumerates every coherence order (one total order of
// writes per location, each a linear extension of po) — or, with
// labeledOnly, every order of the labeled writes per location — and
// applies test to each until one yields a witness. It is the shared outer
// loop of every coherence spec, parallelized across the product of
// per-location candidate lists.
func (r *run) searchCoherence(s *history.System, po *order.Relation, labeledOnly bool, test func(seqs map[history.Loc][]history.OpID) (*Witness, error)) (*Witness, error) {
	locs, candidates, err := coherenceCandidates(s, po, labeledOnly, r.meter)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(candidates))
	for i, c := range candidates {
		sizes[i] = len(c)
	}
	return r.searchProducts(sizes, func(idx []int) (*Witness, error) {
		m := make(map[history.Loc][]history.OpID, len(locs))
		for i, loc := range locs {
			m[loc] = candidates[i][idx[i]]
		}
		return test(m)
	})
}
