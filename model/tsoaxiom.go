package model

import (
	"math/bits"

	"repro/history"
	"repro/order"
)

// storeOrderEdges is TSO-ax's value-axiom pre-pass: it derives the
// store→store edges every TSO-ax memory order must contain, iterated to a
// fixpoint over the closure F of program order over the stores and the
// derived edges. Before(L), the stores that must precede load L, holds the
// remote writer of every load of L's processor at or po-before L (a
// remote store is never forwarded, and loads perform in program order)
// with its F-predecessors. For every load L:
//
//   - LoadOp: Before(L) precedes every store of L's processor po-after L;
//   - Value, CoWR: if L reads W, every other store to L's location in
//     Before(L), or po-before L on its processor, precedes W (it is a
//     candidate for L's value, and W is the maximum);
//   - Value, CoRW: if L reads W and W <F S for a store S to the location
//     that is not L's own po-earlier store, S follows L and so Before(L);
//     when L reads the initial value with no own earlier store there,
//     every store to the location does.
//
// It returns the edges of F between stores of different processors (nil
// when there are none; the enumeration respects program order already),
// with the fixpoint rounds taken. forbidden=true means F is cyclic, or a
// load reads its own po-later store: no memory order exists. ok=false
// means the rules cannot apply (ambiguous reads-from, more than 64
// stores), and the enumeration runs unpruned.
func storeOrderEdges(s *history.System) (forced *order.Relation, rounds int, forbidden, ok bool) {
	stores := s.Writes()
	if len(stores) > 64 {
		return nil, 0, false, false
	}
	idx := make([]int, s.NumOps())
	locMask := make(map[history.Loc]uint64)
	for i, id := range stores {
		idx[id] = i
		locMask[s.Op(id).Loc] |= 1 << uint(i)
	}
	type load struct {
		writer int    // store index of the observed write, -1 for the initial value
		seen   uint64 // remote writers of the processor's loads up to this one
		own    uint64 // the processor's po-earlier stores to the location
		later  uint64 // the processor's po-later stores
		loc    uint64 // every store to the location
	}
	var loads []load
	pred := make([]uint64, len(stores)) // pred[j]: the stores before store j in F
	for p := 0; p < s.NumProcs(); p++ {
		var earlier, seen uint64
		first := len(loads)
		for _, id := range s.ProcOps(history.Proc(p)) {
			o := s.Op(id)
			if o.Kind == history.Write {
				pred[idx[id]] |= earlier
				earlier |= 1 << uint(idx[id])
				continue
			}
			w, found, err := s.WriterOf(id)
			if err != nil {
				return nil, 0, false, false
			}
			l := load{writer: -1, own: earlier & locMask[o.Loc], loc: locMask[o.Loc], later: earlier}
			if found {
				l.writer = idx[w]
				bit := uint64(1) << uint(l.writer)
				switch {
				case s.Op(w).Proc != o.Proc:
					seen |= bit
				case earlier&bit == 0:
					return nil, 0, true, true // reads its own po-later store
				}
			}
			l.seen = seen
			loads = append(loads, l)
		}
		for i := first; i < len(loads); i++ {
			loads[i].later = earlier &^ loads[i].later
		}
	}
	for {
		rounds++
		for k := range pred {
			for j := range pred {
				if pred[j]>>uint(k)&1 != 0 {
					pred[j] |= pred[k]
				}
			}
		}
		for j, m := range pred {
			if m>>uint(j)&1 != 0 {
				return nil, rounds, true, true
			}
		}
		changed := false
		add := func(from uint64, to int) {
			if from&^pred[to] != 0 {
				pred[to] |= from
				changed = true
			}
		}
		for _, l := range loads {
			before := l.seen
			for m := l.seen; m != 0; m &= m - 1 {
				before |= pred[bits.TrailingZeros64(m)]
			}
			for m := l.later; m != 0; m &= m - 1 {
				add(before, bits.TrailingZeros64(m))
			}
			if l.writer >= 0 {
				wbit := uint64(1) << uint(l.writer)
				add((before|l.own)&l.loc&^wbit, l.writer)
				for m := l.loc &^ l.own &^ wbit; m != 0; m &= m - 1 {
					if st := bits.TrailingZeros64(m); pred[st]&wbit != 0 {
						add(before, st)
					}
				}
			} else if l.own == 0 {
				for m := l.loc; m != 0; m &= m - 1 {
					add(before, bits.TrailingZeros64(m))
				}
			}
		}
		if !changed {
			break
		}
	}
	for j, m := range pred {
		for ; m != 0; m &= m - 1 {
			if a, b := stores[bits.TrailingZeros64(m)], stores[j]; s.Op(a).Proc != s.Op(b).Proc {
				if forced == nil {
					forced = order.New(s.NumOps())
				}
				forced.Add(a, b)
			}
		}
	}
	return forced, rounds, false, true
}

// storeOrderPrepass runs storeOrderEdges for a check and charges its
// rounds to the meter; decided=true means the history is forbidden
// outright.
func (r *run) storeOrderPrepass(s *history.System) (forced *order.Relation, decided bool, err error) {
	forced, rounds, forbidden, ok := storeOrderEdges(s)
	if !ok {
		return nil, false, nil
	}
	if err := r.chargeFastPath(rounds, s.NumOps()); err != nil {
		return nil, false, err
	}
	if forbidden {
		r.probe.Constraint("fastpath", "store-order cycle: no TSO-ax memory order")
		return nil, true, nil
	}
	return forced, false, nil
}

// axiomaticAssign tries to place every load against the store order wseq.
// On success it returns, per processor, a view-like rendering of the
// memory order (the store order with the processor's loads inserted at
// their positions) — not a legal view in the paper's sense (forwarded
// loads precede their stores), but a faithful witness of the memory order.
func axiomaticAssign(s *history.System, wseq []history.OpID) (map[history.Proc]history.View, bool) {
	idx := make(map[history.OpID]int, len(wseq))
	for i, id := range wseq {
		idx[id] = i
	}
	positions := make(map[history.OpID]int)
	for p := 0; p < s.NumProcs(); p++ {
		proc := history.Proc(p)
		ops := s.ProcOps(proc)
		prev := 0
		for i, id := range ops {
			o := s.Op(id)
			if o.Kind != history.Read {
				continue
			}
			// Upper bound: the load is memory-ordered before every
			// program-order-later operation of its processor; for
			// stores that bounds the prefix length.
			ub := len(wseq)
			for _, later := range ops[i+1:] {
				if s.Op(later).Kind == history.Write {
					if k := idx[later]; k < ub {
						ub = k
					}
				}
			}
			pos, ok := minFeasible(s, wseq, ops[:i], o, prev, ub)
			if !ok {
				return nil, false
			}
			positions[id] = pos
			prev = pos
		}
	}
	// Render witnesses: per processor, stores with own loads inserted.
	views := make(map[history.Proc]history.View, s.NumProcs())
	for p := 0; p < s.NumProcs(); p++ {
		proc := history.Proc(p)
		var loads []history.OpID
		for _, id := range s.ProcOps(proc) {
			if s.Op(id).Kind == history.Read {
				loads = append(loads, id)
			}
		}
		var v history.View
		li := 0
		for w := 0; w <= len(wseq); w++ {
			for li < len(loads) && positions[loads[li]] == w {
				v = append(v, loads[li])
				li++
			}
			if w < len(wseq) {
				v = append(v, wseq[w])
			}
		}
		views[proc] = v
	}
	return views, true
}

// minFeasible finds the smallest prefix length in [prev, ub] at which the
// Value axiom yields the load's value. earlier lists the processor's
// program-order-earlier operations (for forwarding).
func minFeasible(s *history.System, wseq []history.OpID, earlier []history.OpID, load history.Op, prev, ub int) (int, bool) {
	idx := -1 // index in wseq of the forwarding candidate, -1 if none
	for _, e := range earlier {
		o := s.Op(e)
		if o.Kind == history.Write && o.Loc == load.Loc {
			for k, w := range wseq {
				if w == e && k > idx {
					idx = k
				}
			}
		}
	}
	for pos := prev; pos <= ub; pos++ {
		// Last store to the location in the prefix wseq[:pos].
		best := idx // forwarding candidate (own pending or drained store)
		for k := 0; k < pos; k++ {
			if s.Op(wseq[k]).Loc == load.Loc && k > best {
				best = k
			}
		}
		var val history.Value
		if best >= 0 {
			val = s.Op(wseq[best]).Value
		} else {
			val = history.Initial
		}
		if val == load.Value {
			return pos, true
		}
	}
	return 0, false
}
