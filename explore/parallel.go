package explore

import (
	"context"
	"hash/maphash"
	"sync"

	"repro/internal/pool"
	"repro/program"
)

// This file holds the frontier-parallel breadth-first search behind
// Exhaustive. The search proceeds level by level, and each level in chunks
// of at most mergeChunk frontier states: every state of a chunk is expanded
// concurrently (invariant check, terminal check, child generation — the
// expensive machine cloning and stepping), then the chunk's results are
// merged sequentially in frontier order, and each frontier state is dropped
// once merged. All shared bookkeeping — state/transition counts, violation
// reporting, progress edges, seen-set membership — happens in the merge, so
// the result is bit-for-bit deterministic no matter how the workers are
// scheduled, and on complete explorations the counts equal the sequential
// depth-first search's (the visited-state set of a dedup-at-push search is
// independent of search order). Chunking bounds the expansions held at
// once: a level's children live only as long as their chunk's merge. The
// seen-set is striped across mutexes so expansion workers can pre-filter
// children concurrently; it only grows, so a child it already holds is one
// the merge would drop anyway.

// mergeChunk is the number of frontier states expanded before a merge.
const mergeChunk = 1024

// childEdge is one generated transition: the stepped clone, the choice that
// produced it, and its fingerprint.
type childEdge struct {
	m    *program.Machine
	step step
	fp   string
}

// expansion is what one worker produces for one frontier node.
type expansion struct {
	fp        string // the node's own fingerprint (TrackProgress only)
	violation error
	terminal  bool
	err       error
	children  []childEdge
	// dropped counts children pre-filtered against the seen-set; they
	// are still transitions and the merge counts them as such.
	dropped int
}

func exhaustiveParallel(ctx context.Context, m0 *program.Machine, opts Options, inv Invariant, workers int) (Result, error) {
	var res Result
	res.Complete = true
	if opts.TrackProgress {
		res.edges = map[string][]string{}
	}
	seen := newStripedSet()
	seen.Add(m0.Fingerprint())
	frontier := []node{{m: m0.Clone()}}

	for len(frontier) > 0 {
		var next []node
		for lo := 0; lo < len(frontier); lo += mergeChunk {
			chunk := frontier[lo:min(lo+mergeChunk, len(frontier))]
			// Expansion phase: workers fill exps[i] from chunk[i]; the
			// seen-set is only read (it is frozen between merges). A
			// cancelled context short-circuits remaining expansions (the
			// whole chunk is then discarded, so the empty expansions
			// never reach the merge); a worker panic is contained by the
			// pool and surfaces as a *pool.PanicError.
			exps := make([]expansion, len(chunk))
			if err := pool.Indexed(workers, len(chunk), func(i int) {
				if ctx.Err() != nil {
					return
				}
				exps[i] = expand(chunk[i], opts, inv, seen)
			}); err != nil {
				return res, err
			}
			if err := ctx.Err(); err != nil {
				res.truncate(ctxReason(err))
				return res, nil
			}

			// Merge phase: sequential, in frontier order.
			for i := range chunk {
				n, exp := chunk[i], &exps[i]
				chunk[i] = node{}
				res.States++
				if exp.err != nil {
					return res, exp.err
				}
				if exp.violation != nil {
					res.Violations = append(res.Violations, n.violation(exp.violation))
					if opts.StopAtFirst {
						res.truncate(IncompleteFirstViolation)
						return res, nil
					}
					continue // do not explore past a violation
				}
				if exp.terminal {
					res.TerminalStates++
					if opts.TrackProgress {
						res.terminals = append(res.terminals, exp.fp)
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
				for _, c := range exp.children {
					res.Transitions++
					if opts.TrackProgress {
						res.edges[exp.fp] = append(res.edges[exp.fp], c.fp)
					}
					if !seen.Add(c.fp) {
						continue
					}
					next = append(next, n.child(c.m, c.step))
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

// expand evaluates one frontier node: invariant, terminal check, and child
// generation. Children whose fingerprints the seen-set already contains are
// dropped unless TrackProgress needs the edge; the authoritative dedup (and
// all counting) happens in the merge.
func expand(n node, opts Options, inv Invariant, seen *stripedSet) expansion {
	var exp expansion
	if opts.TrackProgress {
		exp.fp = n.m.Fingerprint()
	}
	if err := inv(n.m); err != nil {
		exp.violation = err
		return exp
	}
	if n.m.Halted() && len(n.m.Mem().Internal()) == 0 {
		exp.terminal = true
		return exp
	}
	if n.depth >= opts.MaxDepth {
		return exp
	}
	exp.err = n.successors(func(child *program.Machine, st step) {
		fp := child.Fingerprint()
		if !opts.TrackProgress && seen.Has(fp) {
			exp.dropped++ // already reached
			return
		}
		exp.children = append(exp.children, childEdge{m: child, step: st, fp: fp})
	})
	return exp
}

// stripedSet is a string set sharded across independently locked maps, so
// many workers can probe membership without contending on one mutex.
type stripedSet struct {
	seed   maphash.Seed
	shards [64]struct {
		mu sync.Mutex
		m  map[string]struct{}
	}
}

func newStripedSet() *stripedSet {
	s := &stripedSet{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].m = map[string]struct{}{}
	}
	return s
}

func (s *stripedSet) shard(key string) *struct {
	mu sync.Mutex
	m  map[string]struct{}
} {
	return &s.shards[maphash.String(s.seed, key)%uint64(len(s.shards))]
}

// Has reports membership.
func (s *stripedSet) Has(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	_, ok := sh.m[key]
	sh.mu.Unlock()
	return ok
}

// Add inserts key, reporting whether it was new.
func (s *stripedSet) Add(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	_, dup := sh.m[key]
	if !dup {
		sh.m[key] = struct{}{}
	}
	sh.mu.Unlock()
	return !dup
}
