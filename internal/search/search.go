// Package search decides view existence: given a set of operations, a
// precedence relation and the legality requirement (every read returns the
// most recent preceding write to its location, or the initial value), does
// a legal linearization exist?
//
// This is the computational core of every memory-model checker in package
// model: each model reduces "is history H allowed?" to one or more view-
// existence problems, possibly inside an enumeration of write orders. The
// problem generalizes sequential-consistency verification and is NP-hard in
// general; the solver is a memoized depth-first search over states
// (placed-operation set, last write per location), which decides
// litmus-scale instances (≤ ~24 operations) in microseconds.
package search

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/history"
	"repro/internal/budget"
	"repro/internal/obs"
	"repro/order"
)

// Problem is one view-existence question. Ops lists the operations the view
// must contain (each exactly once); Prec is a relation over the whole
// system's operations, of which only pairs with both endpoints in Ops
// constrain the view. Prec should already be transitively closed if chains
// through operations outside Ops are to constrain the view (the paper's
// orders are closed before restriction).
//
// Meter, when non-nil, meters the search cooperatively: every expanded
// node is counted against the meter's budget (amortized every
// budget.Stride nodes), and when the meter stops — deadline, work budget,
// or context cancellation — the search aborts and returns the meter's
// *budget.StopError instead of a definite answer. A nil Meter runs
// open-loop, exactly as before.
type Problem struct {
	Sys   *history.System
	Ops   []history.OpID
	Prec  *order.Relation
	Meter *budget.Meter

	// Probe, when non-nil, receives this search's statistics — nodes
	// expanded, memo hits/misses, value and order prunes — flushed once
	// when the search returns, never per node. A nil Probe disables all
	// statistic tallying (the checks reduce to predicted branches).
	Probe *obs.Probe
	// Parts names the order relations whose union (closure) Prec is, so
	// order prunes can be attributed to the constraint responsible: when a
	// placement is blocked by an unplaced predecessor, the prune is charged
	// to the first part containing that edge, or to "derived" when the edge
	// exists only in the transitive closure. Consulted only when Probe is
	// non-nil.
	Parts []Part
	// Frontier, when non-nil, is raised (atomic max) to the deepest partial
	// linearization this search reaches — the constraint frontier reported
	// on forbidden and Unknown verdicts. Tracked even without a Probe.
	Frontier *atomic.Int64
}

// Part is one named ingredient of a precedence relation (po, ppo, wb, co,
// coherence, ...), used to attribute order prunes.
type Part struct {
	Name string
	Rel  *order.Relation
}

// MaxOps is the largest operation set FindView accepts. The solver's state
// encoding uses one bit per operation.
const MaxOps = 64

type solver struct {
	sys   *history.System
	ops   []history.OpID // local index → global ID
	op    []localOp      // local index → what the search reads of it
	nLocs int

	// Memoized dead states, keyed by the placed set and the last write
	// per location: failedW packs the last writes one byte per location
	// into a word when the view has at most 8 locations (wide false);
	// failedS keys them by string otherwise. The maps are made on the
	// first dead state; a pooled solver keeps failedW, cleared, for its
	// next problem.
	memo    bool
	wide    bool
	failedW map[[2]uint64]struct{}
	failedS map[stateKey]struct{}

	// Budget accounting: nodes are tallied locally and flushed to the
	// shared meter every budget.Stride nodes; stopErr latches the meter's
	// stop so the whole recursion unwinds quickly once the budget trips.
	meter   *budget.Meter
	pending int
	stopErr error

	// Observability: stats tallies on the solver's stack and is flushed to
	// probe once per search (nil when the check is un-instrumented);
	// maxDepth tracks the constraint frontier and is always on (one
	// compare per node); frontier receives its atomic max, when non-nil.
	stats    *obs.SolverStats
	statsBuf obs.SolverStats
	probe    *obs.Probe
	parts    []Part
	frontier *atomic.Int64
	maxDepth int

	// Scratch kept across the problems a pooled solver serves: local maps
	// a global OpID to its local index and locMap a system location to
	// the view's, both -1 outside the current problem; keep is the
	// problem's operation set as relation row words.
	local  []int32
	locMap []int32
	keep   []uint64
	seq    []int
	lastW  []byte
}

// localOp is one operation of a view problem as the search sees it: the
// bitmask of its required predecessors (local indices), its kind, value
// and view-local location.
type localOp struct {
	preds uint64
	val   history.Value
	loc   int32
	kind  history.Kind
}

// solvers recycles solvers, with their scratch and memo maps, across view
// problems: a check solves one problem per processor per candidate.
var solvers = sync.Pool{New: func() any { return new(solver) }}

// maxPooledMemo bounds the memo a pooled solver keeps: clearing a map
// costs time in proportion to the largest size it ever reached, so a memo
// that grew past this is dropped rather than cleared and reused.
const maxPooledMemo = 1 << 8

// note counts one expanded node and polls the shared meter at the stride
// cadence. It reports false when the search must abort; the unwinding
// recursion must then avoid caching any state as dead (aborted subtrees
// are unexplored, not failed).
func (s *solver) note() bool {
	if s.stats != nil {
		s.stats.Nodes++
	}
	if s.meter == nil {
		return true
	}
	if s.stopErr != nil {
		return false
	}
	if s.pending++; s.pending < budget.Stride {
		return true
	}
	s.pending = 0
	if err := s.meter.AddNodes(budget.Stride); err != nil {
		s.stopErr = err
		return false
	}
	return true
}

// flush reports the locally tallied node remainder to the meter, raises
// the shared frontier to this search's max depth, and hands the stats to
// the probe. A stop latched during the meter flush is deliberately
// ignored: the search has already finished, and its answer stands.
func (s *solver) flush() {
	if s.meter != nil && s.pending > 0 {
		s.meter.AddNodes(int64(s.pending))
		s.pending = 0
	}
	if s.frontier != nil {
		for {
			cur := s.frontier.Load()
			if int64(s.maxDepth) <= cur || s.frontier.CompareAndSwap(cur, int64(s.maxDepth)) {
				break
			}
		}
	}
	if s.stats != nil {
		s.stats.MaxDepth = s.maxDepth
		s.probe.FlushSolver(s.stats)
		*s.stats = obs.SolverStats{}
	}
}

// noteOrderPrune attributes one order-constraint rejection (operation i
// blocked by the unplaced predecessors in missing) to the named part
// containing the blocking edge. Called only when stats is armed.
func (s *solver) noteOrderPrune(i int, missing uint64) {
	j := bits.TrailingZeros64(missing)
	a, b := s.ops[j], s.ops[i]
	for _, part := range s.parts {
		if part.Rel != nil && part.Rel.Has(a, b) {
			s.stats.OrderPrune(part.Name)
			return
		}
	}
	s.stats.OrderPrune("derived")
}

type stateKey struct {
	placed uint64
	lastW  string // one byte per location: local write index + 1, 0 = none
}

// dead reports whether the state (placed, lastW) is memoized as dead.
func (s *solver) dead(placed uint64, lastW []byte) bool {
	if s.wide {
		_, ok := s.failedS[stateKey{placed, string(lastW)}]
		return ok
	}
	_, ok := s.failedW[[2]uint64{placed, packLastW(lastW)}]
	return ok
}

// markDead memoizes the state (placed, lastW) as dead.
func (s *solver) markDead(placed uint64, lastW []byte) {
	if s.wide {
		if s.failedS == nil {
			s.failedS = make(map[stateKey]struct{})
		}
		s.failedS[stateKey{placed, string(lastW)}] = struct{}{}
		return
	}
	if s.failedW == nil {
		s.failedW = make(map[[2]uint64]struct{})
	}
	s.failedW[[2]uint64{placed, packLastW(lastW)}] = struct{}{}
}

// packLastW packs at most 8 last-write bytes into one word.
func packLastW(lastW []byte) uint64 {
	var k uint64
	for l, w := range lastW {
		k |= uint64(w) << (8 * uint(l))
	}
	return k
}

// FindView reports whether a legal linearization of p.Ops exists that
// respects p.Prec, and returns one if so. It returns an error only for
// malformed problems (too many operations, duplicate operations).
func FindView(p Problem) (history.View, bool, error) {
	return findView(p, true)
}

// EnumerateViews yields every legal linearization of p.Ops respecting
// p.Prec, in depth-first order, until yield returns false. Unlike
// enumerate-then-filter approaches, legality prunes the search tree as it
// grows, and states proved to admit no completion are memoized — so
// enumeration over histories with long forced chains (e.g. candidate
// sequentially consistent serializations of labeled operations in the RCsc
// checker) stays tractable. The View passed to yield is freshly allocated
// and may be retained. When p.Meter stops the search, the enumeration
// aborts and the meter's *budget.StopError is returned.
func EnumerateViews(p Problem, yield func(history.View) bool) error {
	s, err := newSolver(p, true)
	if err != nil {
		return err
	}
	s.enumerate(0, s.lastW, &s.seq, func() bool {
		view := make(history.View, len(s.seq))
		for i, li := range s.seq {
			view[i] = s.ops[li]
		}
		return yield(view)
	})
	s.flush()
	err = s.stopErr
	s.release()
	return err
}

// enumerate is dfs generalized to visit every completion. cont is false
// when the whole enumeration must stop (yield asked to); found reports
// whether this subtree produced at least one completion, which lets dead
// states — and only dead states — enter the failure cache (a state with
// completions cannot be skipped on revisit: distinct prefixes reaching it
// yield distinct full sequences).
func (s *solver) enumerate(placed uint64, lastW []byte, seq *[]int, yield func() bool) (cont, found bool) {
	if !s.note() {
		return false, false // budget stop: unwind without caching anything
	}
	n := len(s.ops)
	if d := len(*seq); d > s.maxDepth {
		s.maxDepth = d
	}
	if len(*seq) == n {
		return yield(), true
	}
	if s.memo {
		if s.dead(placed, lastW) {
			if s.stats != nil {
				s.stats.MemoHits++
			}
			return true, false // dead subtree; keep enumerating elsewhere
		}
		if s.stats != nil {
			s.stats.MemoMisses++
		}
	}
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 {
			continue
		}
		o := &s.op[i]
		if miss := o.preds &^ placed; miss != 0 {
			if s.stats != nil {
				s.noteOrderPrune(i, miss)
			}
			continue
		}
		loc := o.loc
		var prev byte
		if o.kind == history.Read {
			if w := lastW[loc]; w == 0 {
				if o.val != history.Initial {
					if s.stats != nil {
						s.stats.ValuePrunes++
					}
					continue
				}
			} else if s.op[int(w)-1].val != o.val {
				if s.stats != nil {
					s.stats.ValuePrunes++
				}
				continue
			}
		} else {
			prev = lastW[loc]
			lastW[loc] = byte(i) + 1
		}
		*seq = append(*seq, i)
		c, f := s.enumerate(placed|bit, lastW, seq, yield)
		*seq = (*seq)[:len(*seq)-1]
		if o.kind == history.Write {
			lastW[loc] = prev
		}
		found = found || f
		if !c {
			return false, found
		}
	}
	if !found && s.memo && s.stopErr == nil {
		s.markDead(placed, lastW)
	}
	return true, found
}

// newSolver validates the problem and builds the solver's dense local
// encoding in a pooled solver; the caller hands it back with release.
func newSolver(p Problem, memo bool) (*solver, error) {
	n := len(p.Ops)
	if n > MaxOps {
		return nil, fmt.Errorf("search: %d operations exceeds limit of %d", n, MaxOps)
	}
	s := solvers.Get().(*solver)
	s.sys, s.ops, s.memo = p.Sys, p.Ops, memo
	s.meter, s.frontier = p.Meter, p.Frontier
	if p.Probe.Enabled() {
		s.probe = p.Probe
		s.parts = p.Parts
		s.stats = &s.statsBuf
	}
	if cap(s.op) < n {
		s.op = make([]localOp, MaxOps)
	}
	s.op = s.op[:n]
	if cap(s.seq) < n {
		s.seq = make([]int, 0, MaxOps)
	}
	s.seq = s.seq[:0]
	s.local = growNeg(s.local, p.Sys.NumOps())
	s.locMap = growNeg(s.locMap, len(p.Sys.Locs()))

	// Number the operations and the view's locations (by first touch).
	nLocs := 0
	for i, id := range p.Ops {
		if s.local[id] >= 0 {
			s.clearScratch(p.Ops[:i])
			s.release()
			return nil, fmt.Errorf("search: duplicate operation %v in problem", p.Sys.Op(id))
		}
		s.local[id] = int32(i)
		o := p.Sys.Op(id)
		sl := p.Sys.LocOf(id)
		li := s.locMap[sl]
		if li < 0 {
			li = int32(nLocs)
			nLocs++
			s.locMap[sl] = li
		}
		s.op[i] = localOp{val: o.Value, loc: li, kind: o.Kind}
	}
	s.nLocs = nLocs
	s.wide = nLocs > 8
	if cap(s.lastW) < nLocs {
		s.lastW = make([]byte, nLocs)
	}
	s.lastW = s.lastW[:nLocs]
	clear(s.lastW)

	// Predecessor masks from the relation's row words: the successors of
	// a within the view, mapped to local indices.
	if p.Prec != nil {
		words := (p.Sys.NumOps() + 63) / 64
		if cap(s.keep) < words {
			s.keep = make([]uint64, words)
		}
		s.keep = s.keep[:words]
		clear(s.keep)
		for _, id := range p.Ops {
			s.keep[id/64] |= 1 << (uint(id) % 64)
		}
		for i, a := range p.Ops {
			bit := uint64(1) << uint(i)
			row := p.Prec.Row(a)
			for w := range min(len(row), words) {
				for word := row[w] & s.keep[w]; word != 0; word &= word - 1 {
					j := s.local[w*64+bits.TrailingZeros64(word)]
					if int(j) != i {
						s.op[j].preds |= bit
					}
				}
			}
		}
	}
	s.clearScratch(p.Ops)
	return s, nil
}

// growNeg returns buf with at least n entries, every one -1: a pooled
// index table stays all -1 between problems, so only growth refills it.
func growNeg(buf []int32, n int) []int32 {
	if len(buf) >= n {
		return buf
	}
	buf = make([]int32, max(n, 2*len(buf)))
	for i := range buf {
		buf[i] = -1
	}
	return buf
}

// clearScratch returns the index tables to all -1 after the operations
// ops numbered them.
func (s *solver) clearScratch(ops []history.OpID) {
	for _, id := range ops {
		s.local[id] = -1
		s.locMap[s.sys.LocOf(id)] = -1
	}
}

// release returns the solver to the pool, dropping its references to the
// problem and clearing its memo (dropping the memo when large).
func (s *solver) release() {
	failedW := s.failedW
	if len(failedW) > maxPooledMemo {
		failedW = nil
	}
	clear(failedW)
	*s = solver{op: s.op, failedW: failedW, local: s.local, locMap: s.locMap,
		keep: s.keep, seq: s.seq, lastW: s.lastW}
	solvers.Put(s)
}

func findView(p Problem, memo bool) (history.View, bool, error) {
	s, err := newSolver(p, memo)
	if err != nil {
		return nil, false, err
	}
	ok := s.dfs(0, s.lastW, &s.seq)
	s.flush()
	if err := s.stopErr; err != nil {
		s.release()
		return nil, false, err
	}
	var view history.View
	if ok {
		view = make(history.View, len(s.seq))
		for i, li := range s.seq {
			view[i] = s.ops[li]
		}
	}
	s.release()
	return view, ok, nil
}

// dfs extends the partial linearization. placed is the bitmask of already
// placed local indices; lastW[loc] records the most recent write placed per
// location (local index + 1, 0 if none). seq accumulates the order.
func (s *solver) dfs(placed uint64, lastW []byte, seq *[]int) bool {
	if !s.note() {
		return false // budget stop: unwind without caching anything
	}
	n := len(s.ops)
	if d := len(*seq); d > s.maxDepth {
		s.maxDepth = d
	}
	if len(*seq) == n {
		return true
	}
	if s.memo {
		if s.dead(placed, lastW) {
			if s.stats != nil {
				s.stats.MemoHits++
			}
			return false
		}
		if s.stats != nil {
			s.stats.MemoMisses++
		}
	}
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 {
			continue
		}
		o := &s.op[i]
		if miss := o.preds &^ placed; miss != 0 {
			if s.stats != nil {
				s.noteOrderPrune(i, miss)
			}
			continue
		}
		loc := o.loc
		if o.kind == history.Read {
			// A read is placeable only when the most recent write
			// to its location (or the initial value) matches.
			if w := lastW[loc]; w == 0 {
				if o.val != history.Initial {
					if s.stats != nil {
						s.stats.ValuePrunes++
					}
					continue
				}
			} else if s.op[int(w)-1].val != o.val {
				if s.stats != nil {
					s.stats.ValuePrunes++
				}
				continue
			}
			*seq = append(*seq, i)
			if s.dfs(placed|bit, lastW, seq) {
				return true
			}
			*seq = (*seq)[:len(*seq)-1]
		} else {
			prev := lastW[loc]
			lastW[loc] = byte(i) + 1
			*seq = append(*seq, i)
			if s.dfs(placed|bit, lastW, seq) {
				return true
			}
			*seq = (*seq)[:len(*seq)-1]
			lastW[loc] = prev
		}
	}
	if s.memo && s.stopErr == nil {
		s.markDead(placed, lastW)
	}
	return false
}
