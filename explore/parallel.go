package explore

import (
	"context"

	"repro/internal/pool"
)

// This file holds the frontier-parallel breadth-first search behind
// Exhaustive. The search proceeds level by level, and each level in chunks
// of at most mergeChunk frontier states: every state of a chunk is
// expanded concurrently (showing the state to the invariant, the terminal
// check, and looking up or stepping its successors), then the chunk's
// nodes are settled sequentially in frontier order. All shared bookkeeping
// — state/transition counts, recording violations, progress edges,
// interning new components, writing memo entries, visited-set membership —
// happens in the settling, so the result is bit-for-bit deterministic no
// matter how the workers are scheduled, and on complete explorations the
// counts equal the depth-first search's (the visited-state set of a
// dedup-at-push search is independent of search order).
//
// Workers only read the component tables, the memos and the visited set:
// a successor whose memo entry exists costs a lookup and, unless
// TrackProgress needs the edge, a probe of the visited set, which drops it
// if the state was reached before (it only grows, so such a successor is
// one settling would drop anyway); no lock is taken and no machine is
// copied. A memo miss is stepped in the worker's scratch machine, and a
// component the tables do not hold yet is kept in the worker's scratch as
// pending until settling interns it. Which successors miss depends only
// on the memos at the start of the chunk, so the work done, like the
// result, does not depend on the scheduling either. pool.Indexed returns
// after every worker has finished, and starts the next chunk's workers
// after the settling, so the reads and the writes never overlap.
//
// Frontier nodes are a state's number, its step and its depth: the state
// itself is in the visited set, and a node holds no machine. Settling
// records a violation only as what the search found: the invariant's
// error and the violating node's step. Each violation's Trace, History
// and State are built after the search by buildViolations in explore.go,
// which both searches share; only a terminal state passed to OnTerminal is
// replayed during the settling. Settling decides the MaxStates cap before
// the chunk is expanded (chunk node i is state S0+i+1), so a node at or
// past the cap is checked but its successors are not looked up.
//
// Workers number a memory's locations on first touch, so which id a
// location gets, and with it the bytes of the memory keys, can differ
// between two runs. Within one run all states share one location table,
// so the tables' membership is exact and the settling's decisions, and
// everything reported, are the same in every run.

// mergeChunk is the number of frontier states expanded before they are
// settled.
const mergeChunk = 1024

// parallel is the breadth-first search on workers goroutines.
func (sr *search) parallel(ctx context.Context, workers int) error {
	frontier := []node{{}} // the root, state 0
	var next []node
	// One scratch per worker, indexed by the worker pool.Indexed names.
	ss := make([]*scratch, workers)
	for i := range ss {
		ss[i] = newScratch(sr.root)
	}
	defer func() {
		for _, s := range ss {
			sr.res.hits += s.hits
			sr.res.stepped += s.stepped
		}
	}()
	exps := make([]expansion, mergeChunk)
	for len(frontier) > 0 {
		next = next[:0]
		for lo := 0; lo < len(frontier); lo += mergeChunk {
			chunk := frontier[lo:min(lo+mergeChunk, len(frontier))]
			for _, s := range ss {
				s.reset()
			}
			// Expansion phase: workers fill exps[i] from chunk[i]; the
			// space is only read. Settling will count chunk[i] as state
			// s0+i+1, so a node at or past MaxStates is checked but its
			// successors are not looked up. A cancelled context
			// short-circuits remaining expansions (the whole chunk is
			// then discarded, so the empty expansions are never
			// settled); a worker panic is contained by the pool and
			// surfaces as a *pool.PanicError.
			exps := exps[:len(chunk)]
			s0 := sr.res.States
			prefilter := !sr.opts.TrackProgress
			if err := pool.Indexed(workers, len(chunk), func(w, i int) {
				if ctx.Err() != nil {
					return
				}
				exps[i] = ss[w].expand(sr, &chunk[i], s0+i+1 >= sr.opts.MaxStates, prefilter)
			}); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				sr.res.truncate(ctxReason(err))
				return nil
			}
			// Settling phase: sequential, in frontier order.
			for i := range chunk {
				stop, err := sr.settle(&chunk[i], &exps[i], &next)
				exps[i] = expansion{}
				if stop {
					return err
				}
			}
		}
		frontier, next = next, frontier
	}
	return nil
}
