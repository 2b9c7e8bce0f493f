// Package perm enumerates linear extensions of small partial orders. The
// memory-model checkers use it to enumerate candidate global write orders
// (TSO), per-location coherence orders (PC, RC) and labeled-operation
// serializations (RC_sc).
package perm

import "math/bits"

// LinearExtensions enumerates every ordering of the items 0..n-1 in which
// item a appears before item b whenever before(a, b) is true. The yield
// function receives each extension; the slice is reused between calls and
// must be copied if retained. If yield returns false, enumeration stops and
// LinearExtensions returns false; otherwise it returns true after
// exhausting all extensions.
//
// before need not be transitively closed or acyclic: a cycle yields no
// extensions, and is found in O(n²) before any ordering is walked. n must
// be at most 64.
func LinearExtensions(n int, before func(a, b int) bool, yield func(order []int) bool) bool {
	if n > 64 {
		panic("perm: LinearExtensions limited to 64 items")
	}
	preds, ok := precedence(n, before)
	return !ok || extend(preds, make([]int, 0, n), 0, n, yield)
}

// precedence returns the items' precedence masks — preds[i] is the bitmask
// of the items that must come before item i — and whether they are
// acyclic. Acyclicity is decided Kahn-style on the masks: each pass places
// every item whose predecessors are all placed, and the masks are acyclic
// exactly when every item gets placed, after at most n passes of n items.
// Without this check a walk over cyclic masks would try every ordering of
// the items it can place before finding that none completes.
func precedence(n int, before func(a, b int) bool) ([]uint64, bool) {
	preds := make([]uint64, n)
	for i := range n {
		for j := range n {
			if i != j && before(j, i) {
				preds[i] |= 1 << uint(j)
			}
		}
	}
	var placed uint64
	for progress := true; progress; {
		progress = false
		for i, p := range preds {
			bit := uint64(1) << uint(i)
			if placed&bit == 0 && p&^placed == 0 {
				placed |= bit
				progress = true
			}
		}
	}
	return preds, bits.OnesCount64(placed) == n
}

// extend walks every way to extend order, a placement prefix whose items
// are the bits of placed, to depth items under the acyclic masks preds,
// and passes each to yield; the slice is reused, so order must have
// capacity for depth items. It returns false as soon as yield does. Every
// prefix it builds extends to a linear extension, so over acyclic masks
// the walk meets no dead end: yield is called at least once every n
// steps.
func extend(preds []uint64, order []int, placed uint64, depth int, yield func(order []int) bool) bool {
	if len(order) == depth {
		return yield(order)
	}
	for i, p := range preds {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 || p&^placed != 0 {
			continue
		}
		if !extend(preds, append(order, i), placed|bit, depth, yield) {
			return false
		}
	}
	return true
}

// CountLinearExtensionsUpTo counts linear extensions but stops at limit —
// a cheap "is this space big enough to shard?" probe that never pays for
// an exact count of a factorial-sized space.
func CountLinearExtensionsUpTo(n int, before func(a, b int) bool, limit int) int {
	count := 0
	LinearExtensions(n, before, func([]int) bool { count++; return count < limit })
	return count
}

// Products enumerates the cartesian product of choice counts: for sizes
// [s0, s1, …], yield receives every index vector [i0, i1, …] with
// 0 ≤ ik < sk. The slice is reused; copy if retained. Stops early when
// yield returns false, returning false. An empty sizes slice yields one
// empty vector.
func Products(sizes []int, yield func(idx []int) bool) bool {
	idx := make([]int, len(sizes))
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == len(sizes) {
			return yield(idx)
		}
		for i := 0; i < sizes[d]; i++ {
			idx[d] = i
			if !rec(d + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}
