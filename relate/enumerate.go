package relate

import (
	"fmt"

	"repro/history"
)

// EnumerateHistories yields every (unlabeled) system execution history of
// a fixed small shape: procs processors with opsPerProc operations each
// over the given number of locations. Write values are canonical — the
// k-th write to a location (in operation-ID order) carries value k — so
// distinct-write resolution always works; each read carries either 0 or
// the value of some write to its location anywhere in the history.
//
// Enumerating a complete shape turns the paper's Figure 5 from a sampled
// claim into an exhaustive one over that subspace: for the 2-processor,
// 2-operations-each, 2-location shape, every containment of the lattice
// can be checked against every one of the few thousand possible histories.
// The yield function may return false to stop early.
func EnumerateHistories(procs, opsPerProc, locs int, yield func(*history.System) bool) {
	n := procs * opsPerProc
	// A skeleton fixes, per operation slot, the kind and location.
	type slot struct {
		kind history.Kind
		loc  int
	}
	skeleton := make([]slot, n)
	// reads collects the slot indices needing value assignment.
	var emit func(i int) bool
	var assignValues func() bool

	// writeValues computes canonical values for writes and the candidate
	// value sets for reads under the current skeleton.
	assignValues = func() bool {
		writeVal := make([]history.Value, n)
		counts := make([]history.Value, locs)
		valuesAt := make([][]history.Value, locs)
		for i, s := range skeleton {
			if s.kind == history.Write {
				counts[s.loc]++
				writeVal[i] = counts[s.loc]
				valuesAt[s.loc] = append(valuesAt[s.loc], counts[s.loc])
			}
		}
		var readSlots []int
		for i, s := range skeleton {
			if s.kind == history.Read {
				readSlots = append(readSlots, i)
			}
		}
		readVal := make([]history.Value, n)
		var rec func(k int) bool
		rec = func(k int) bool {
			if k == len(readSlots) {
				b := history.NewBuilder(procs)
				for i, s := range skeleton {
					p := history.Proc(i / opsPerProc)
					loc := history.Loc(fmt.Sprintf("l%d", s.loc))
					if s.kind == history.Write {
						b.Write(p, loc, writeVal[i])
					} else {
						b.Read(p, loc, readVal[i])
					}
				}
				return yield(b.System())
			}
			i := readSlots[k]
			cands := append([]history.Value{0}, valuesAt[skeleton[i].loc]...)
			for _, v := range cands {
				readVal[i] = v
				if !rec(k + 1) {
					return false
				}
			}
			return true
		}
		return rec(0)
	}

	emit = func(i int) bool {
		if i == n {
			return assignValues()
		}
		for _, k := range []history.Kind{history.Read, history.Write} {
			for l := 0; l < locs; l++ {
				skeleton[i] = slot{kind: k, loc: l}
				if !emit(i + 1) {
					return false
				}
			}
		}
		return true
	}
	emit(0)
}
