package explore

import (
	"context"
	"sync/atomic"

	"repro/internal/pool"
	"repro/program"
)

// This file holds the frontier-parallel breadth-first search behind
// Exhaustive. The search proceeds level by level, and each level in chunks
// of at most mergeChunk frontier states: every state of a chunk is expanded
// concurrently (building the state, invariant check, terminal check, and
// stepping and keying its successors), then the chunk's results are
// merged sequentially in frontier order. All shared bookkeeping —
// state/transition counts, recording violations, progress edges, seen-set
// membership — happens in the merge, so the result is bit-for-bit
// deterministic no matter how the workers are scheduled, and on complete
// explorations the counts equal the sequential depth-first search's (the
// visited-state set of a dedup-at-push search is independent of search
// order).
//
// The merge records a violation only as what the search found: the
// invariant's error and the violating node's step. Each violation's
// Trace, History and State, all from one replay of its schedule from the
// root, are built after the search by buildViolations in explore.go,
// which both searches share, on the pool's workers and in the order the
// merge recorded them. So those replays cost the merge, which runs on one
// goroutine, nothing; only a terminal state passed to OnTerminal is
// replayed in the merge.
//
// Expansion is key-first: each worker steps every successor in one reused
// scratch machine and records it only as its step, its key and the key's
// hash, which the merge reuses to insert a kept key into the seen-set.
// A successor the merge keeps becomes a lazy frontier node — a pointer to
// its parent's node and the step, from the search's step slab — and its
// machine is built only at the start of its own expansion, in parallel, by
// cloning the parent and replaying the step. No machine is built for the
// many successors that reach a state the search has already seen, and a
// level's new states are held as steps, not machines, until they are
// expanded. The merge decides the MaxStates cap before the chunk is
// expanded (chunk node i is state S0+i+1), so a node at or past the cap is
// built and checked but its successors are not stepped.
//
// Machines are recycled, not collected. The search owns every machine it
// builds, and hands none of them to the caller: Violation.State and the
// machines passed to OnTerminal are replayed apart. Each goes back to a
// worker's free list (the scratch's), and the next state a worker builds,
// or the next successor it steps after keeping one, reuses one from its
// list:
//
//   - a node the merge keeps no child of (a violating or terminal state, a
//     dead end, a state at the depth or state cap) is recycled by the
//     merge;
//   - a node the merge keeps children of counts them in kids; each child's
//     build decrements the count after cloning, and the child that brings
//     it to zero recycles the parent's machine, in its own worker's list.
//
// The count lives in the node, in the level's node array, so it costs no
// heap object; three node arrays take turns across the levels. The lists
// are plain slices, not a sync.Pool, so allocation counts are the same
// under -race, and a search allocates about as many machines as it ever
// holds live at once.
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

// childEdge is one generated transition: the choice that produced it, the
// end of its key in its expansion's keys, and the key's hash in the
// seen-set, which the expansion computed to probe the set and the merge
// inserts the key under.
type childEdge struct {
	step step
	end  int
	hash uint64
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

func exhaustiveParallel(ctx context.Context, m0 *program.Machine, opts Options, inv Invariant, workers int, seen *keySet) (res Result, err error) {
	res.Complete = true
	if opts.TrackProgress {
		res.edges = map[string][]string{}
	}
	// A level's nodes point to the level before it until they are built,
	// so three node arrays take turns: the level being expanded, the one
	// its nodes are built from, and the next level, which reuses the
	// array of the level before those.
	root := m0.Clone()
	root.Mem().Recorder().Discard()
	frontier := []node{{m: root}}
	var parents, spare []node
	// One scratch per worker, indexed by the worker pool.Indexed names.
	ss := make([]scratch, workers)
	defer func() {
		for i := range ss {
			res.stepped += ss[i].stepped
		}
	}()
	exps := make([]expansion, mergeChunk)
	var steps stepSlab

	for len(frontier) > 0 {
		clear(spare)
		next := spare[:0]
		for lo := 0; lo < len(frontier); lo += mergeChunk {
			chunk := frontier[lo:min(lo+mergeChunk, len(frontier))]
			for i := range ss {
				ss[i].keys, ss[i].children = ss[i].keys[:0], ss[i].children[:0]
			}
			// Expansion phase: workers build chunk[i] and fill exps[i]
			// from it; the seen-set is only read. The merge will count
			// chunk[i] as state s0+i+1, so a node at or past MaxStates
			// is built and checked but its successors are not stepped.
			// A cancelled context short-circuits remaining expansions
			// (the whole chunk is then discarded, so the empty
			// expansions never reach the merge); a worker panic is
			// contained by the pool and surfaces as a *pool.PanicError.
			exps := exps[:len(chunk)]
			s0 := res.States
			if err := pool.Indexed(workers, len(chunk), func(w, i int) {
				if ctx.Err() != nil {
					return
				}
				exps[i] = ss[w].expand(&chunk[i], opts, inv, seen, s0+i+1 >= opts.MaxStates)
			}); err != nil {
				return res, err
			}
			if err := ctx.Err(); err != nil {
				res.truncate(ctxReason(err))
				return res, nil
			}

			// Merge phase: sequential, in frontier order.
			for i := range chunk {
				n, exp := &chunk[i], exps[i]
				exps[i] = expansion{}
				res.States++
				if exp.err != nil {
					return res, exp.err
				}
				switch {
				case exp.violation != nil: // not explored past
					res.found = append(res.found, found{err: exp.violation, step: n.step})
					if opts.StopAtFirst {
						res.truncate(IncompleteFirstViolation)
						return res, nil
					}
				case exp.terminal:
					res.TerminalStates++
					if opts.TrackProgress {
						res.terminals = append(res.terminals, exp.key)
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
					res.Transitions += exp.dropped
					start := 0
					for _, c := range exp.children {
						res.Transitions++
						key := exp.keys[start:c.end]
						start = c.end
						if opts.TrackProgress {
							res.edges[exp.key] = append(res.edges[exp.key], string(key))
						}
						if !seen.addHashed(c.hash, key) {
							continue
						}
						next = append(next, node{parent: n, step: steps.add(c.step), depth: n.depth + 1})
						n.kids++
					}
				}
				if n.kids == 0 {
					ss[i%workers].recycle(n.m)
					n.m = nil
				}
			}
		}
		spare, parents, frontier = parents, frontier, next
	}
	if opts.TrackProgress && res.Complete {
		res.StuckStates = countStuck(res.edges, res.terminals)
	}
	return res, nil
}

// expand builds frontier node n if it is lazy, then evaluates it:
// invariant, terminal check, and, unless capped, successor generation.
// Successors whose keys the seen-set already contains are dropped unless
// TrackProgress needs the edge; the authoritative dedup (and all counting)
// happens in the merge. A lazy node is built in a machine from s's free
// list, and the child that is the last to be built from its parent's
// machine puts that machine on s's free list.
func (s *scratch) expand(n *node, opts Options, inv Invariant, seen *keySet, capped bool) expansion {
	var exp expansion
	if n.m == nil {
		p := n.parent
		m := p.m.CloneInto(s.take())
		if atomic.AddInt32(&p.kids, -1) == 0 {
			s.recycle(p.m)
			p.m = nil
		}
		n.m, n.parent = m, nil
		if exp.err = n.step.apply(m); exp.err != nil {
			return exp
		}
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
	if n.depth >= opts.MaxDepth || capped {
		return exp
	}
	keys, children := len(s.keys), len(s.children)
	exp.err = s.successors(n, func(_ *program.Machine, key []byte, st step) bool {
		h := seen.hash(key)
		if !opts.TrackProgress && seen.hasHashed(h, key) {
			exp.dropped++ // already reached
			return false
		}
		s.keys = append(s.keys, key...)
		s.children = append(s.children, childEdge{step: st, end: len(s.keys) - keys, hash: h})
		return false
	})
	exp.keys, exp.children = s.keys[keys:], s.children[children:]
	return exp
}
