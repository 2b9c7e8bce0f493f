package order

import (
	"fmt"

	"repro/history"
	"repro/internal/perm"
)

// Program returns the program order →po: o_{p,i} < o_{p,j} whenever i < j.
// It totally orders each processor's operations and relates no operations
// of different processors.
func Program(s *history.System) *Relation {
	r := New(s.NumOps())
	for p := 0; p < s.NumProcs(); p++ {
		ops := s.ProcOps(history.Proc(p))
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				r.Add(ops[i], ops[j])
			}
		}
	}
	return r
}

// PartialProgram returns the partial program order →ppo of the paper:
// o1 < o2 when o1 →po o2 and one of
//
//   - o1 and o2 are operations on the same location;
//   - o1 and o2 are both reads or both writes;
//   - o1 is a read and o2 is a write;
//   - the pair is implied transitively through another operation.
//
// The omitted case — o1 a write, o2 a later read of a different location —
// is exactly the store-buffer bypass that TSO, PC and RC permit.
func PartialProgram(s *history.System) *Relation {
	r := New(s.NumOps())
	for p := 0; p < s.NumProcs(); p++ {
		ops := s.ProcOps(history.Proc(p))
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := s.Op(ops[i]), s.Op(ops[j])
				switch {
				case a.Loc == b.Loc:
					r.Add(ops[i], ops[j])
				case a.Kind == b.Kind:
					r.Add(ops[i], ops[j])
				case a.Kind == history.Read && b.Kind == history.Write:
					r.Add(ops[i], ops[j])
				}
			}
		}
	}
	return r.TransitiveClosure()
}

// WritesBefore returns the writes-before order →wb: w(x)v < r(x)v whenever
// the read returns the value written by that write. Resolution of which
// write a read observed follows the distinct-write-values discipline (see
// history.System.WriterOf); reads of the initial value contribute no pair.
// It returns an error if any read's writer is ambiguous.
func WritesBefore(s *history.System) (*Relation, error) {
	r := New(s.NumOps())
	for _, id := range s.Ops() {
		o := s.Op(id)
		if o.Kind != history.Read {
			continue
		}
		w, ok, err := s.WriterOf(id)
		if err != nil {
			return nil, fmt.Errorf("order: writes-before: %w", err)
		}
		if ok {
			r.Add(w, id)
		}
	}
	return r, nil
}

// Causal returns the causal order →co = (→po ∪ →wb)+, Lamport's
// happens-before adapted to shared memory as in the paper's Section 2.
func Causal(s *history.System) (*Relation, error) {
	wb, err := WritesBefore(s)
	if err != nil {
		return nil, err
	}
	co := Program(s)
	co.Union(wb)
	return co.TransitiveClosure(), nil
}

// Coherence is a per-location total order on writes: Order[loc] lists the
// writes to loc in the order every processor's view must present them.
// PC and RC use a coherence order as their mutual-consistency requirement.
type Coherence struct {
	Order map[history.Loc][]history.OpID
	pos   []int // by OpID: the write's place in its location's order, -1 if absent
}

// NewCoherence builds a Coherence from per-location write sequences. Each
// sequence must contain exactly the writes to its location.
func NewCoherence(s *history.System, order map[history.Loc][]history.OpID) (*Coherence, error) {
	c := &Coherence{Order: order, pos: make([]int, s.NumOps())}
	for i := range c.pos {
		c.pos[i] = -1
	}
	for loc, seq := range order {
		want := 0
		for i := 0; i < s.NumOps(); i++ {
			if o := s.Op(history.OpID(i)); o.Kind == history.Write && o.Loc == loc {
				want++
			}
		}
		if len(seq) != want {
			return nil, fmt.Errorf("order: coherence for %s has %d writes, history has %d", loc, len(seq), want)
		}
		for i, id := range seq {
			o := s.Op(id)
			if o.Kind != history.Write || o.Loc != loc {
				return nil, fmt.Errorf("order: coherence for %s includes %v", loc, o)
			}
			if c.pos[id] >= 0 {
				return nil, fmt.Errorf("order: coherence for %s repeats %v", loc, o)
			}
			c.pos[id] = i
		}
	}
	return c, nil
}

// Before reports whether write a precedes write b in the coherence order of
// their (common) location. Both must be writes to the same location that
// appear in the order.
func (c *Coherence) Before(a, b history.OpID) bool {
	if a < 0 || b < 0 || int(a) >= len(c.pos) || int(b) >= len(c.pos) {
		return false
	}
	pa, pb := c.pos[a], c.pos[b]
	return pa >= 0 && pb >= 0 && pa < pb
}

// Relation renders the coherence order as a Relation over the system's
// operations (edges between consecutive and non-consecutive writes of each
// location).
func (c *Coherence) Relation(s *history.System) *Relation {
	r := New(s.NumOps())
	for _, seq := range c.Order {
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				r.Add(seq[i], seq[j])
			}
		}
	}
	return r
}

// RemoteWritesBefore returns →rwb: o1 < o2 when o1 = w(x)v, o2 = r(y)u, and
// there is a write o' = w(y)u with o1 →ppo o' and o2 reads the value
// written by o'. The relation links a write to reads (by any processor) of
// values written later by the same processor.
func RemoteWritesBefore(s *history.System, ppo *Relation) (*Relation, error) {
	r := New(s.NumOps())
	for _, id := range s.Ops() {
		o2 := s.Op(id)
		if o2.Kind != history.Read {
			continue
		}
		oPrime, ok, err := s.WriterOf(id)
		if err != nil {
			return nil, fmt.Errorf("order: remote writes-before: %w", err)
		}
		if !ok {
			continue
		}
		for _, o1 := range s.Ops() {
			if s.Op(o1).Kind == history.Write && ppo.Has(o1, oPrime) {
				r.Add(o1, id)
			}
		}
	}
	return r, nil
}

// RemoteReadsBefore returns →rrb: o1 < o2 when o1 = r(x)v, o2 = w(y)u, and
// there is a write o' = w(x)v' such that o1's observed write precedes o' in
// the coherence order of x (or o1 read the initial value, which precedes
// every write) and o' →ppo o2. The relation links a read of an old value to
// writes that program-order-follow a newer write of the same location.
func RemoteReadsBefore(s *history.System, ppo *Relation, coh *Coherence) (*Relation, error) {
	r := New(s.NumOps())
	writes := s.Writes()
	for i := 0; i < s.NumOps(); i++ {
		id := history.OpID(i)
		o1 := s.Op(id)
		if o1.Kind != history.Read {
			continue
		}
		observed, sawWrite, err := s.WriterOf(id)
		if err != nil {
			return nil, fmt.Errorf("order: remote reads-before: %w", err)
		}
		for _, oPrime := range writes {
			if s.LocOf(oPrime) != s.LocOf(id) || (sawWrite && !coh.Before(observed, oPrime)) {
				continue // another location, or o' not newer than what o1 saw
			}
			// When o1 read the initial value, every write to the
			// location is newer, so every o' qualifies.
			for _, o2 := range writes {
				if ppo.Has(oPrime, o2) {
					r.Add(id, o2)
				}
			}
		}
	}
	return r, nil
}

// SemiCausal returns PC's semi-causality order →sem = (→ppo ∪ →rwb ∪ →rrb)+
// relative to a given coherence order.
func SemiCausal(s *history.System, coh *Coherence) (*Relation, error) {
	ppo := PartialProgram(s)
	rwb, err := RemoteWritesBefore(s, ppo)
	if err != nil {
		return nil, err
	}
	rrb, err := RemoteReadsBefore(s, ppo, coh)
	if err != nil {
		return nil, err
	}
	sem := ppo.Clone()
	sem.Union(rwb)
	sem.Union(rrb)
	return sem.TransitiveClosure(), nil
}

// AddChain adds to r the total-order edges of the sequence: every earlier
// element precedes every later one. Checkers use it to impose an
// enumerated write order or serialization on views.
func (r *Relation) AddChain(seq []history.OpID) {
	for i := 0; i < len(seq); i++ {
		for j := i + 1; j < len(seq); j++ {
			r.Add(seq[i], seq[j])
		}
	}
}

// LinearExtensions enumerates every total order of ops consistent with rel
// (a precedes b whenever rel.Has(a,b) and both are in ops), calling yield
// with each; the slice is freshly allocated per call. Enumeration stops
// when yield returns false. This is the building block for enumerating
// candidate write orders and coherence orders when defining new memory
// models in the paper's framework.
func LinearExtensions(ops []history.OpID, rel *Relation, yield func([]history.OpID) bool) {
	perm.LinearExtensions(len(ops), func(a, b int) bool {
		return rel.Has(ops[a], ops[b])
	}, func(ord []int) bool {
		ext := make([]history.OpID, len(ord))
		for i, k := range ord {
			ext[i] = ops[k]
		}
		return yield(ext)
	})
}
