// Package order implements the ordering relations of Kohli, Neiger and
// Ahamad's framework: program order (po), partial program order (ppo),
// writes-before (wb), causal order (co), the remote writes-before (rwb) and
// remote reads-before (rrb) relations, and PC's semi-causality (sem).
// Memory models in package model are defined by which of these orders their
// processor views must respect.
//
// A Relation is a binary relation over the operations of a single
// history.System, represented as a dense bit matrix; histories at litmus
// scale have tens of operations, so closure and queries are effectively
// free.
package order

import (
	"fmt"
	"math/bits"

	"repro/history"
)

// Relation is a binary relation over the operation IDs 0..N-1 of one
// System. rel.Has(a, b) means a is ordered before b. The zero value is not
// usable; call New.
type Relation struct {
	n     int
	words int
	rows  []uint64 // rows[i*words .. (i+1)*words) is the successor bitset of op i
}

// New returns an empty relation over n operations.
func New(n int) *Relation {
	w := (n + 63) / 64
	if w == 0 {
		w = 1
	}
	return &Relation{n: n, words: w, rows: make([]uint64, n*w)}
}

// Size returns the number of operations the relation ranges over.
func (r *Relation) Size() int { return r.n }

func (r *Relation) row(i int) []uint64 { return r.rows[i*r.words : (i+1)*r.words] }

// Add records a < b. Adding a reflexive pair (a == b) is allowed and
// represents a cycle through a single operation; HasCycle reports it.
func (r *Relation) Add(a, b history.OpID) {
	r.row(int(a))[int(b)/64] |= 1 << (uint(b) % 64)
}

// Row returns a's successors as bit words: bit b of word w is set when
// a < w*64+b. The slice aliases the relation and must not be modified; its
// capacity ends with the row, so an append copies instead of spilling into
// the next row.
func (r *Relation) Row(a history.OpID) []uint64 {
	i := int(a) * r.words
	return r.rows[i : i+r.words : i+r.words]
}

// Has reports whether a < b is in the relation.
func (r *Relation) Has(a, b history.OpID) bool {
	return r.row(int(a))[int(b)/64]&(1<<(uint(b)%64)) != 0
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{n: r.n, words: r.words, rows: make([]uint64, len(r.rows))}
	copy(c.rows, r.rows)
	return c
}

// Reset removes every pair, keeping the allocation for reuse.
func (r *Relation) Reset() {
	for i := range r.rows {
		r.rows[i] = 0
	}
}

// CopyFrom makes r an exact copy of other, reusing r's storage when the
// two relations range over the same operation count. Checkers that clone a
// base relation once per enumerated candidate use it to recycle buffers
// through an arena instead of allocating a fresh matrix each time.
func (r *Relation) CopyFrom(other *Relation) {
	if r.n != other.n || len(r.rows) != len(other.rows) {
		r.n, r.words = other.n, other.words
		r.rows = make([]uint64, len(other.rows))
	}
	copy(r.rows, other.rows)
}

// Union adds every pair of other into r. The relations must range over the
// same operation count.
func (r *Relation) Union(other *Relation) {
	if other.n != r.n {
		panic(fmt.Sprintf("order: Union of relations over %d and %d ops", r.n, other.n))
	}
	for i := range r.rows {
		r.rows[i] |= other.rows[i]
	}
}

// RestrictTo removes, in place, every pair with an endpoint outside ops,
// and returns r. Where the closure is taken matters: a closed order (such
// as causal order) restricted to one view keeps the chains that pass
// through operations outside it, while a relation restricted before it is
// closed keeps only what binds a view that respects the pairs between its
// own operations.
func (r *Relation) RestrictTo(ops []history.OpID) *Relation {
	var keepBuf [1]uint64
	keep := keepBuf[:]
	if r.words > 1 {
		keep = make([]uint64, r.words)
	}
	for _, id := range ops {
		keep[int(id)/64] |= 1 << (uint(id) % 64)
	}
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		in := keep[i/64]&(1<<(uint(i)%64)) != 0
		for w := range row {
			if in {
				row[w] &= keep[w]
			} else {
				row[w] = 0
			}
		}
	}
	return r
}

// TransitiveClosure closes the relation in place: after the call,
// Has(a, c) whenever a chain a < b < ... < c existed. It returns r.
func (r *Relation) TransitiveClosure() *Relation {
	if r.words == 1 {
		closeWord(r.rows)
		return r
	}
	// Standard bitset Floyd–Warshall: for each intermediate k, every row
	// that reaches k absorbs k's row.
	w := r.words
	for k := 0; k < r.n; k++ {
		krow := r.rows[k*w : (k+1)*w]
		kw, kb := k/64, uint64(1)<<(uint(k)%64)
		for i := 0; i < r.n; i++ {
			if r.rows[i*w+kw]&kb == 0 {
				continue
			}
			irow := r.rows[i*w : (i+1)*w]
			for x, v := range krow {
				irow[x] |= v
			}
		}
	}
	return r
}

// closeWord is TransitiveClosure for a relation over at most 64
// operations, one word per row.
func closeWord(rows []uint64) {
	for k, krow := range rows {
		kb := uint64(1) << uint(k)
		for i := range rows {
			if rows[i]&kb != 0 {
				rows[i] |= krow
			}
		}
	}
}

// HasCycle reports whether the transitive closure of the relation relates
// any operation to itself. It does not modify r.
func (r *Relation) HasCycle() bool {
	if r.words == 1 {
		var buf [64]uint64
		rows := buf[:r.n]
		copy(rows, r.rows)
		closeWord(rows)
		for i, row := range rows {
			if row&(1<<uint(i)) != 0 {
				return true
			}
		}
		return false
	}
	c := r.Clone().TransitiveClosure()
	for i := 0; i < c.n; i++ {
		if c.row(i)[i/64]&(1<<(uint(i)%64)) != 0 {
			return true
		}
	}
	return false
}

// Pairs returns all ordered pairs in the relation, in (a, b) lexicographic
// order. Intended for tests and diagnostics.
func (r *Relation) Pairs() [][2]history.OpID {
	var out [][2]history.OpID
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				j := w*64 + b
				if j < r.n {
					out = append(out, [2]history.OpID{history.OpID(i), history.OpID(j)})
				}
			}
		}
	}
	return out
}

// Len returns the number of ordered pairs in the relation.
func (r *Relation) Len() int {
	total := 0
	for _, w := range r.rows {
		total += bits.OnesCount64(w)
	}
	return total
}

// Respects reports whether the given sequence lists its operations in an
// order consistent with the relation: for every pair a < b in the relation
// with both a and b present in the sequence, a appears before b. Operations
// outside the sequence impose no constraint (the paper's conditions are
// always of the form "if both operations appear in the view").
func (r *Relation) Respects(seq history.View) bool {
	for i, a := range seq {
		for j := i + 1; j < len(seq); j++ {
			if r.Has(seq[j], a) {
				return false
			}
		}
	}
	return true
}
