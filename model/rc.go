package model

import (
	"fmt"

	"repro/history"
	"repro/internal/search"
	"repro/order"
)

// rcscLabeledSearch enumerates the legal sequentially consistent
// serializations of the labeled operations (legality-pruned, so impossible
// prefixes are cut early) that are compatible with the coherence order and,
// for each, tries to solve all views. It returns a witness or nil. Each
// candidate serialization is charged to the run's meter (a second,
// inner candidate space multiplying the coherence products), and the
// enumeration itself is metered through the search problem.
func rcscLabeledSearch(r *run, s *history.System, labeled []history.OpID, po *order.Relation, coh *order.Coherence, prec0 *order.Relation, parts []search.Part) (*Witness, error) {
	var (
		witness  *Witness
		innerErr error
	)
	var enumParts []search.Part
	if parts != nil {
		enumParts = []search.Part{{Name: "po", Rel: po}}
	}
	err := search.EnumerateViews(r.problem(s, labeled, po, enumParts), func(t history.View) bool {
		if err := r.meter.AddCandidate(); err != nil {
			innerErr = err
			return false
		}
		if !labeledOrderMatchesCoherence(s, t, coh) {
			r.probe.Constraint("labeled-vs-coherence", "labeled serialization contradicts the coherence order")
			return true
		}
		prec := r.cloneRel(prec0)
		addChain(prec, t)
		candParts := parts
		if candParts != nil {
			chain := order.New(s.NumOps())
			addChain(chain, t)
			candParts = append(candParts[:len(candParts):len(candParts)],
				search.Part{Name: "labeled-order", Rel: chain})
		}
		views, err := r.solveViews(s, prec, candParts)
		r.releaseRel(prec)
		if err != nil {
			innerErr = err
			return false
		}
		if views == nil {
			return true
		}
		witness = &Witness{Views: views, LabeledOrder: t}
		return false
	})
	if err != nil {
		return nil, err
	}
	return witness, innerErr
}

// labeledOrderMatchesCoherence reports whether the labeled serialization
// orders same-location labeled writes exactly as the coherence order does.
func labeledOrderMatchesCoherence(s *history.System, t history.View, coh *order.Coherence) bool {
	for i := 0; i < len(t); i++ {
		a := s.Op(t[i])
		if a.Kind != history.Write {
			continue
		}
		for j := i + 1; j < len(t); j++ {
			b := s.Op(t[j])
			if b.Kind == history.Write && b.Loc == a.Loc && coh.Before(t[j], t[i]) {
				return false
			}
		}
	}
	return true
}

// bracketEdges builds the RC bracketing relation:
//
//   - for each acquire o_r of p that observed write o_w, every ordinary
//     operation of p after o_r in program order follows o_w;
//   - every ordinary operation of p before a release o_w of p in program
//     order precedes o_w.
//
// Edges constrain views only where both endpoints appear, which the view
// solver handles by restriction.
func bracketEdges(s *history.System) (*order.Relation, error) {
	r := order.New(s.NumOps())
	for p := 0; p < s.NumProcs(); p++ {
		ops := s.ProcOps(history.Proc(p))
		for i, id := range ops {
			o := s.Op(id)
			switch {
			case o.IsAcquire():
				w, ok, err := s.WriterOf(id)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue // acquired the initial value
				}
				for _, later := range ops[i+1:] {
					if !s.Op(later).Labeled {
						r.Add(w, later)
					}
				}
			case o.IsRelease():
				for _, earlier := range ops[:i] {
					if !s.Op(earlier).Labeled {
						r.Add(earlier, id)
					}
				}
			}
		}
	}
	return r, nil
}

// fenceEdges orders, per processor, every (ordinary, labeled) pair in
// program order, in both directions: labeled operations are full fences.
func fenceEdges(s *history.System) *order.Relation {
	r := order.New(s.NumOps())
	for p := 0; p < s.NumProcs(); p++ {
		ops := s.ProcOps(history.Proc(p))
		for i, a := range ops {
			for _, b := range ops[i+1:] {
				if s.Op(a).Labeled != s.Op(b).Labeled {
					r.Add(a, b)
				}
			}
		}
	}
	return r
}

// validateLabelSeparation enforces the paper's Section 5 assumption for RC
// histories: every location is accessed either only by labeled operations
// (a synchronization variable) or only by ordinary ones (a data variable).
// The legality of labeled projections is evaluated within the labeled
// subhistory, which is only meaningful under this separation.
func validateLabelSeparation(name string, s *history.System) error {
	type usage struct{ labeled, ordinary bool }
	use := make(map[history.Loc]*usage)
	for _, id := range s.Ops() {
		o := s.Op(id)
		u := use[o.Loc]
		if u == nil {
			u = &usage{}
			use[o.Loc] = u
		}
		if o.Labeled {
			u.labeled = true
		} else {
			u.ordinary = true
		}
		if u.labeled && u.ordinary {
			return fmt.Errorf("model: %s: location %s is accessed by both labeled and ordinary operations; RC checking requires synchronization/data separation", name, o.Loc)
		}
	}
	return nil
}

// labeledSubsystem extracts the labeled subhistory H|ℓ as its own System
// (processor count preserved) together with the mapping from subsystem
// operation IDs back to the original history's IDs.
func labeledSubsystem(s *history.System) (*history.System, []history.OpID) {
	b := history.NewBuilder(s.NumProcs())
	var toGlobal []history.OpID
	for p := 0; p < s.NumProcs(); p++ {
		proc := history.Proc(p)
		for _, id := range s.ProcOps(proc) {
			o := s.Op(id)
			if !o.Labeled {
				continue
			}
			if o.Kind == history.Read {
				b.Acquire(proc, o.Loc, o.Value)
			} else {
				b.Release(proc, o.Loc, o.Value)
			}
			toGlobal = append(toGlobal, id)
		}
	}
	return b.System(), toGlobal
}

// restrictCoherence projects a full-history coherence order onto the
// labeled subsystem: for each location, the labeled writes in the order the
// coherence order gives them, with IDs translated to subsystem IDs.
func restrictCoherence(s, sub *history.System, toGlobal []history.OpID, coh *order.Coherence) (*order.Coherence, error) {
	toSub := make(map[history.OpID]history.OpID, len(toGlobal))
	for subID, globalID := range toGlobal {
		toSub[globalID] = history.OpID(subID)
	}
	m := make(map[history.Loc][]history.OpID)
	for loc, seq := range coh.Order {
		var subSeq []history.OpID
		for _, id := range seq {
			if s.Op(id).Labeled {
				subSeq = append(subSeq, toSub[id])
			}
		}
		if len(subSeq) > 0 {
			m[loc] = subSeq
		}
	}
	return order.NewCoherence(sub, m)
}
