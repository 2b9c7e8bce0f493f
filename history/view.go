package history

import (
	"fmt"
	"strings"
)

// View is a sequential execution history: an ordered arrangement of a
// subset of a System's operations, written S_{p+δp} in the paper. A View is
// a processor's private account of what the shared memory did.
type View []OpID

// String renders the view as a space-separated operation sequence in the
// paper's notation, e.g. "r0(y)0 w0(x)1 w1(y)1".
func (v View) String(s *System) string {
	parts := make([]string, len(v))
	for i, id := range v {
		parts[i] = s.Op(id).String()
	}
	return strings.Join(parts, " ")
}

// Contains reports whether the view includes the operation.
func (v View) Contains(id OpID) bool {
	for _, x := range v {
		if x == id {
			return true
		}
	}
	return false
}

// PositionOf returns the index of id in the view, or -1.
func (v View) PositionOf(id OpID) int {
	for i, x := range v {
		if x == id {
			return i
		}
	}
	return -1
}

// Legal reports whether the view is legal in the paper's sense: every read
// r(x)v in the view is immediately preceded, among operations on x, by a
// write w(x)v — i.e. each read returns the value written by the most recent
// preceding write to its location, or the initial value 0 if no write to
// that location precedes it. When the view is not legal, the returned error
// identifies the first offending read.
func (v View) Legal(s *System) error {
	last := make(map[Loc]Value)
	for _, id := range v {
		o := s.Op(id)
		switch o.Kind {
		case Write:
			last[o.Loc] = o.Value
		case Read:
			want, ok := last[o.Loc]
			if !ok {
				want = Initial
			}
			if o.Value != want {
				return fmt.Errorf("history: illegal view: %v reads %d but most recent write to %s left %d",
					o, o.Value, o.Loc, want)
			}
		}
	}
	return nil
}

// IsLegal reports whether Legal(s) == nil.
func (v View) IsLegal(s *System) bool { return v.Legal(s) == nil }

// ProjectWrites returns the subsequence of the view containing only write
// operations — the paper's S|w, used to state TSO's mutual-consistency
// requirement S_{p+w}|w = S_{q+w}|w.
func (v View) ProjectWrites(s *System) View {
	var out View
	for _, id := range v {
		if s.Op(id).Kind == Write {
			out = append(out, id)
		}
	}
	return out
}

// ProjectProc returns the subsequence of operations issued by processor p.
// A view of processor p must contain exactly H_p in program order; this
// projection is how that is verified.
func (v View) ProjectProc(s *System, p Proc) View {
	var out View
	for _, id := range v {
		if s.Op(id).Proc == p {
			out = append(out, id)
		}
	}
	return out
}

// Equal reports whether two views are the same sequence.
func (v View) Equal(w View) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// SameSet reports whether two views contain the same set of operations,
// regardless of order.
func (v View) SameSet(w View) bool {
	if len(v) != len(w) {
		return false
	}
	seen := make(map[OpID]int, len(v))
	for _, id := range v {
		seen[id]++
	}
	for _, id := range w {
		seen[id]--
		if seen[id] < 0 {
			return false
		}
	}
	return true
}
