package explore

import (
	"context"

	"repro/internal/pool"
	"repro/program"
)

// This file holds the frontier-parallel breadth-first search behind
// Exhaustive. The search proceeds level by level, and each level in chunks
// of at most mergeChunk frontier states: every state of a chunk is expanded
// concurrently (building the state, invariant check, terminal check, and
// stepping and keying its successors), then the chunk's results are
// merged sequentially in frontier order, and each frontier state is dropped
// once merged. All shared bookkeeping — state/transition counts, violation
// reporting, progress edges, seen-set membership — happens in the merge, so
// the result is bit-for-bit deterministic no matter how the workers are
// scheduled, and on complete explorations the counts equal the sequential
// depth-first search's (the visited-state set of a dedup-at-push search is
// independent of search order).
//
// Expansion is key-first: each worker steps every successor in one reused
// scratch machine and records it only as its step and key.
// A successor the merge keeps becomes a lazy frontier node — its parent's
// machine and the step — and its machine is built only at the start of its
// own expansion, in parallel, by cloning the parent and replaying the step.
// No machine is allocated for the many successors that reach a state the
// search has already seen, and a level's new states are held as
// steps, not machines, until they are expanded.
//
// The seen-set (a keySet) needs no lock: expansion workers only read it,
// to drop successors it already holds (it only grows, so such a successor
// is one the merge would drop anyway), and only the merge writes it.
// pool.Indexed returns after every worker has finished, and starts the
// next chunk's workers after the merge, so the reads and the writes never
// overlap.
//
// Workers number a memory's locations on first touch, so which id a
// location gets, and with it the bytes of the keys, can differ between two
// runs. Within one run all states share one location table, so the set's
// membership is exact and the merge's decisions, and everything reported,
// are the same in every run.

// mergeChunk is the number of frontier states expanded before a merge.
const mergeChunk = 1024

// childEdge is one generated transition: the choice that produced it and
// the end of its key in its expansion's keys.
type childEdge struct {
	step step
	end  int
}

// expansion is what one worker produces for one frontier node. Its
// children and their keys live in the worker's scratch until the chunk's
// merge.
type expansion struct {
	key       string // the node's own key (TrackProgress only)
	violation error
	terminal  bool
	err       error
	keys      []byte // the children's keys, back to back
	children  []childEdge
	// dropped counts children pre-filtered against the seen-set; they
	// are still transitions and the merge counts them as such.
	dropped int
}

func exhaustiveParallel(ctx context.Context, m0 *program.Machine, opts Options, inv Invariant, workers int, seen *keySet) (Result, error) {
	var res Result
	res.Complete = true
	if opts.TrackProgress {
		res.edges = map[string][]string{}
	}
	frontier := []node{{m: m0.Clone()}}
	// One scratch per worker: at most workers expansions run at once.
	ss := make([]scratch, workers)
	scratches := make(chan *scratch, workers)
	for i := range ss {
		scratches <- &ss[i]
	}
	exps := make([]expansion, mergeChunk)

	for len(frontier) > 0 {
		var next []node
		for lo := 0; lo < len(frontier); lo += mergeChunk {
			chunk := frontier[lo:min(lo+mergeChunk, len(frontier))]
			for i := range ss {
				ss[i].keys, ss[i].children = ss[i].keys[:0], ss[i].children[:0]
			}
			// Expansion phase: workers build chunk[i] and fill exps[i]
			// from it; the seen-set is only read. A cancelled context
			// short-circuits remaining expansions (the whole chunk is
			// then discarded, so the empty expansions never reach the
			// merge); a worker panic is contained by the pool and
			// surfaces as a *pool.PanicError.
			exps := exps[:len(chunk)]
			if err := pool.Indexed(workers, len(chunk), func(i int) {
				if ctx.Err() != nil {
					return
				}
				s := <-scratches
				exps[i] = s.expand(&chunk[i], opts, inv, seen)
				scratches <- s
			}); err != nil {
				return res, err
			}
			if err := ctx.Err(); err != nil {
				res.truncate(ctxReason(err))
				return res, nil
			}

			// Merge phase: sequential, in frontier order.
			for i := range chunk {
				n, exp := chunk[i], exps[i]
				chunk[i], exps[i] = node{}, expansion{}
				res.States++
				if exp.err != nil {
					return res, exp.err
				}
				if exp.violation != nil {
					v, err := n.violation(exp.violation, m0)
					if err != nil {
						return res, err
					}
					res.Violations = append(res.Violations, v)
					if opts.StopAtFirst {
						res.truncate(IncompleteFirstViolation)
						return res, nil
					}
					continue // do not explore past a violation
				}
				if exp.terminal {
					res.TerminalStates++
					if opts.TrackProgress {
						res.terminals = append(res.terminals, exp.key)
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
				res.Transitions += exp.dropped
				start := 0
				for _, c := range exp.children {
					res.Transitions++
					key := exp.keys[start:c.end]
					start = c.end
					if opts.TrackProgress {
						res.edges[exp.key] = append(res.edges[exp.key], string(key))
					}
					if !seen.add(key) {
						continue
					}
					st := c.step
					next = append(next, node{parent: n.m, step: &st, depth: n.depth + 1})
				}
			}
		}
		frontier = next
	}
	if opts.TrackProgress && res.Complete {
		res.StuckStates = countStuck(res.edges, res.terminals)
	}
	return res, nil
}

// expand builds frontier node n if it is lazy, then evaluates it:
// invariant, terminal check, and successor generation. Successors whose
// keys the seen-set already contains are dropped unless TrackProgress needs
// the edge; the authoritative dedup (and all counting) happens in the
// merge.
func (s *scratch) expand(n *node, opts Options, inv Invariant, seen *keySet) expansion {
	var exp expansion
	if n.m == nil {
		m := n.parent.Clone()
		if exp.err = n.step.apply(m); exp.err != nil {
			return exp
		}
		n.m, n.parent = m, nil
	}
	if opts.TrackProgress {
		s.key = n.m.AppendKey(s.key[:0])
		exp.key = string(s.key)
	}
	if err := inv(n.m); err != nil {
		exp.violation = err
		return exp
	}
	if n.m.Halted() && n.m.Mem().NumInternal() == 0 {
		exp.terminal = true
		return exp
	}
	if n.depth >= opts.MaxDepth {
		return exp
	}
	keys, children := len(s.keys), len(s.children)
	exp.err = s.successors(*n, func(_ *program.Machine, key []byte, st step) bool {
		if !opts.TrackProgress && seen.has(key) {
			exp.dropped++ // already reached
			return false
		}
		s.keys = append(s.keys, key...)
		s.children = append(s.children, childEdge{step: st, end: len(s.keys) - keys})
		return false
	})
	exp.keys, exp.children = s.keys[keys:], s.children[children:]
	return exp
}
