package model

import (
	"fmt"
	"strings"

	"repro/history"
	"repro/order"
)

// Format renders the witness in the paper's notation: one view per
// processor plus the mutual-consistency structures that accompany them.
func (w *Witness) Format(s *history.System) string {
	if w == nil {
		return "(no witness)\n"
	}
	var sb strings.Builder
	for p := 0; p < s.NumProcs(); p++ {
		if v, ok := w.Views[history.Proc(p)]; ok {
			fmt.Fprintf(&sb, "S_p%d: %s\n", p, v.String(s))
		}
	}
	if w.WriteOrder != nil {
		fmt.Fprintf(&sb, "write order: %s\n", w.WriteOrder.String(s))
	}
	for _, loc := range s.Locs() {
		if seq, ok := w.Coherence[loc]; ok {
			fmt.Fprintf(&sb, "coherence %s: %s\n", loc, seq.String(s))
		}
	}
	if w.LabeledOrder != nil {
		fmt.Fprintf(&sb, "labeled SC order: %s\n", w.LabeledOrder.String(s))
	}
	for _, loc := range s.Locs() {
		if seq, ok := w.LocSerializations[loc]; ok {
			fmt.Fprintf(&sb, "serialization %s: %s\n", loc, seq.String(s))
		}
	}
	return sb.String()
}

// poRespecting lists the models whose views must present each processor's
// own operations in full program order (the others use the partial program
// order, which permits write→read bypass). The table is kept by hand,
// apart from the Spec table the checkers interpret, so that a mistake in a
// Spec cannot also hide in the audit of its certificates.
var poRespecting = map[string]bool{
	"SC": true, "PRAM": true, "Causal": true, "PCG": true, "Causal+Coh": true,
	"Causal+LCoh": true, "Slow": true,
}

// VerifyWitness re-validates a positive verdict's certificate
// independently of the solver that produced it: views must be legal
// sequential histories over the right operation sets, all views must agree
// with the witnessed write order and coherence order, and the labeled
// serialization (when present) must itself be legal. A nil error means the
// certificate genuinely demonstrates the history is allowed — the same
// standard of evidence as the paper's hand-built views.
//
// Two models certify differently: Coherence provides per-location
// serializations instead of views, and TSOAxiomatic's views render a
// memory order in which forwarded loads legitimately precede their own
// processor's store (so sequence legality does not apply; its write order
// is checked against program order instead).
func VerifyWitness(m Model, s *history.System, w *Witness) error {
	if w == nil {
		return fmt.Errorf("model: %s: no witness", m.Name())
	}
	switch m.Name() {
	case "Coherence":
		return verifyCoherenceWitness(s, w)
	case "TSO-ax":
		return verifyAxiomaticWitness(s, w)
	}
	if len(w.Views) != s.NumProcs() {
		return fmt.Errorf("model: %s: %d views for %d processors", m.Name(), len(w.Views), s.NumProcs())
	}
	for p := 0; p < s.NumProcs(); p++ {
		proc := history.Proc(p)
		view, ok := w.Views[proc]
		if !ok {
			return fmt.Errorf("model: %s: missing view for p%d", m.Name(), p)
		}
		if err := view.Legal(s); err != nil {
			return fmt.Errorf("model: %s: view of p%d: %w", m.Name(), p, err)
		}
		want := s.ViewOps(proc)
		if m.Name() == "SC" {
			want = s.Ops()
		}
		if !view.SameSet(history.View(want)) {
			return fmt.Errorf("model: %s: view of p%d has wrong operation set", m.Name(), p)
		}
		// For models whose ordering requirement includes full program
		// order, a processor's own operations must appear in program
		// order. ppo-based models (TSO, PC, RC, WO) legitimately let a
		// read precede the processor's own earlier write — the paper's
		// Figure 1 witness does exactly that.
		if poRespecting[m.Name()] {
			own := view.ProjectProc(s, proc)
			for i := 1; i < len(own); i++ {
				if s.Op(own[i-1]).Index >= s.Op(own[i]).Index {
					return fmt.Errorf("model: %s: view of p%d lists own operations out of program order", m.Name(), p)
				}
			}
		}
		if w.WriteOrder != nil {
			if got := view.ProjectWrites(s); !got.Equal(w.WriteOrder) {
				return fmt.Errorf("model: %s: p%d's write projection disagrees with the witnessed write order", m.Name(), p)
			}
		}
		for loc, coh := range w.Coherence {
			// The view must present the writes the coherence order
			// covers in exactly that order. (For the full-coherence
			// models coh lists every write to loc; Causal+LCoh's
			// coherence covers labeled writes only.)
			member := make(map[history.OpID]bool, len(coh))
			for _, id := range coh {
				member[id] = true
			}
			var got history.View
			for _, id := range view {
				if member[id] {
					got = append(got, id)
				}
			}
			if !got.Equal(coh) {
				return fmt.Errorf("model: %s: p%d's coherence projection for %s disagrees with the witness", m.Name(), p, loc)
			}
		}
	}
	if w.LabeledOrder != nil {
		if err := w.LabeledOrder.Legal(s); err != nil {
			return fmt.Errorf("model: %s: labeled serialization: %w", m.Name(), err)
		}
		if !w.LabeledOrder.SameSet(history.View(s.Labeled())) {
			return fmt.Errorf("model: %s: labeled serialization has wrong operation set", m.Name())
		}
	}
	return nil
}

func verifyCoherenceWitness(s *history.System, w *Witness) error {
	for _, loc := range s.Locs() {
		ser, ok := w.LocSerializations[loc]
		if !ok {
			return fmt.Errorf("model: Coherence: missing serialization for %s", loc)
		}
		if err := ser.Legal(s); err != nil {
			return fmt.Errorf("model: Coherence: serialization of %s: %w", loc, err)
		}
		if !ser.SameSet(history.View(s.OpsOn(loc))) {
			return fmt.Errorf("model: Coherence: serialization of %s has wrong operation set", loc)
		}
		po := order.Program(s)
		if !po.Respects(ser) {
			return fmt.Errorf("model: Coherence: serialization of %s violates program order", loc)
		}
	}
	return nil
}

func verifyAxiomaticWitness(s *history.System, w *Witness) error {
	if !history.View(w.WriteOrder).SameSet(history.View(s.Writes())) {
		return fmt.Errorf("model: TSO-ax: witness store order is not a permutation of the stores")
	}
	po := order.Program(s)
	if !po.Respects(w.WriteOrder) {
		return fmt.Errorf("model: TSO-ax: witness store order violates program order")
	}
	return nil
}
