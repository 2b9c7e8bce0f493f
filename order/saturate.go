package order

import (
	"fmt"

	"repro/history"
)

// This file implements the constraint-propagation half of the polynomial
// fast paths: given the operations one view must contain and a base
// precedence relation (program order, partial program order, or causal
// order), SaturateForced derives every additional ordering edge that is
// FORCED — an edge (a, b) such that a precedes b in every legal view of
// the operation set. Because every derived edge is necessary, a cycle in
// the saturated relation is a proof that no legal view exists, and the
// saturated relation can replace the base as a search precedence without
// changing any answer. This is the word-parallel fixpoint the checkers'
// fast paths and enumeration pre-passes are built on.
//
// The derivation rules exploit the distinct-write-values discipline
// (history.System.WriterOf): each read r(x)v either observed the unique
// write w = w(x)v or — when no write to x stores v and v is the initial
// value — the initial state. For a legal view containing r, w and another
// write w' to x:
//
//   - reads-from: w must precede r (the read returns w's value);
//   - write→read coherence: if w' precedes r then w' precedes w — were w'
//     between w and r, the read would return w''s value, not v;
//   - read→write coherence: if w precedes w' then r precedes w' — for the
//     same reason, w' cannot land between w and r;
//   - initial read: r precedes every write to x — any write to x before r
//     would hide the initial value (writes of the initial value 0 are
//     excluded by WriterOf's ambiguity check).
//
// The rules feed each other through transitive closure, so they iterate to
// a fixpoint: closure, one derivation sweep, repeat until no edge is
// added. Each round adds at least one edge, bounding rounds by the number
// of derivable pairs; litmus-scale histories converge in two or three.

// SaturateForced adds to rel every ordering edge forced on legal views of
// ops (see the file comment for the rules) and transitively closes it. It
// reports whether the saturated relation is acyclic — when it is not, no
// legal view of ops respecting rel exists, which callers may treat as a
// sound rejection — together with the number of fixpoint rounds taken, so
// callers can charge the work to a budget meter.
//
// rel must range over all of s's operations and should already contain the
// base precedence (it need not be closed; the first round closes it).
// SaturateForced returns an error only when some read's writer is
// ambiguous, in which case rel may hold a partially saturated (but still
// sound) relation and callers should fall back to plain search.
func SaturateForced(s *history.System, ops []history.OpID, rel *Relation) (acyclic bool, rounds int, err error) {
	// Resolve each read in the view once up front and collect the view's
	// writes for the coherence sweeps, which match them to a read by
	// location.
	type readInfo struct {
		id     history.OpID
		writer history.OpID // NoOp when the read observed the initial state
		found  bool
	}
	reads := make([]readInfo, 0, len(ops))
	writes := make([]history.OpID, 0, len(ops))
	var inBuf [1]uint64
	in := inBuf[:]
	if rel.words > 1 {
		in = make([]uint64, rel.words)
	}
	for _, id := range ops {
		in[int(id)/64] |= 1 << (uint(id) % 64)
		switch s.Op(id).Kind {
		case history.Write:
			writes = append(writes, id)
		case history.Read:
			w, ok, werr := s.WriterOf(id)
			if werr != nil {
				return false, rounds, fmt.Errorf("order: saturate: %w", werr)
			}
			reads = append(reads, readInfo{id: id, writer: w, found: ok})
		}
	}
	inOps := func(id history.OpID) bool { return in[int(id)/64]&(1<<(uint(id)%64)) != 0 }

	// Seed the reads-from and initial-read edges; the fixpoint below adds
	// the coherence-derived ones.
	for _, r := range reads {
		if r.found {
			if inOps(r.writer) {
				rel.Add(r.writer, r.id)
			}
			continue
		}
		loc := s.LocOf(r.id)
		for _, w := range writes {
			if s.LocOf(w) == loc {
				rel.Add(r.id, w)
			}
		}
	}

	for {
		rounds++
		rel.TransitiveClosure()
		changed := false
		for _, rd := range reads {
			if !rd.found || !inOps(rd.writer) {
				continue
			}
			loc := s.LocOf(rd.id)
			for _, w := range writes {
				if w == rd.writer || s.LocOf(w) != loc {
					continue
				}
				if rel.Has(w, rd.id) && !rel.Has(w, rd.writer) {
					rel.Add(w, rd.writer)
					changed = true
				}
				if rel.Has(rd.writer, w) && !rel.Has(rd.id, w) {
					rel.Add(rd.id, w)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	for i := 0; i < s.NumOps(); i++ {
		id := history.OpID(i)
		if rel.Has(id, id) {
			return false, rounds, nil
		}
	}
	return true, rounds, nil
}
