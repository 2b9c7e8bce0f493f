package model

import (
	"repro/history"
)

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
