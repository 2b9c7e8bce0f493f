package model

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/history"
	"repro/internal/search"
	"repro/order"
)

// This file renders verdicts into explanations. A bare "allowed" answer
// hides the objects the paper actually reasons with — the per-processor
// serializations S_{p+δp} and the order constraints they respect — so
// Explain reconstructs, from the history and the witness's mutual-
// consistency structures, each model's named order ingredients (po, ppo,
// wb, coherence, brackets, fences, the labeled serialization) and labels
// every consecutive pair of each view with the constraints that forced it.
// A pair no constraint forced is labeled "solver": the search was free to
// choose it, and a different legal choice may exist. Negative and Unknown
// verdicts explain themselves through the constraint frontier — how deep
// the deepest partial serialization got before every extension was pruned
// (or the budget stopped the check).
//
// Explanations are replayable: ValidateExplanation re-verifies the
// embedded witness independently (VerifyWitness) and re-derives every
// claimed edge label, so a serialized explanation is evidence, not prose.

// OpRef is a JSON-renderable reference to one operation of the history.
type OpRef struct {
	// ID is the operation's global identifier (history.OpID).
	ID int `json:"id"`
	// Proc is the issuing processor.
	Proc int `json:"proc"`
	// Kind is "r" or "w" ("R"/"W" when labeled), as in the paper's
	// notation.
	Kind string `json:"kind"`
	// Loc and Value identify what was accessed.
	Loc   string `json:"loc"`
	Value int    `json:"value"`
	// Text is the paper-notation rendering, e.g. "w1(x)3".
	Text string `json:"text"`
}

// ExplainedEdge is one consecutive pair of a serialization together with
// the order constraints responsible for it. Why lists the names of the
// model's order ingredients containing the edge; "derived" marks an edge
// forced only by the transitive closure of the ingredients; "solver"
// marks a free choice of the view search (no constraint ordered the
// pair).
type ExplainedEdge struct {
	From int      `json:"from"`
	To   int      `json:"to"`
	Why  []string `json:"why"`
}

// ViewExplanation is one certifying view S_{p+δp} with its edges labeled.
type ViewExplanation struct {
	Proc  int             `json:"proc"`
	Order []OpRef         `json:"order"`
	Edges []ExplainedEdge `json:"edges,omitempty"`
}

// Explanation is the machine-readable rendering of a verdict. For an
// allowed verdict it embeds the certifying views and mutual-consistency
// structures; for a forbidden or Unknown verdict it reports the deepest
// constraint frontier the search reached.
type Explanation struct {
	Model   string `json:"model"`
	Decided bool   `json:"decided"`
	Allowed bool   `json:"allowed"`
	// Unknown carries the stop reason when Decided is false.
	Unknown string `json:"unknown,omitempty"`
	Ops     int    `json:"ops"`
	Procs   int    `json:"procs"`
	// Views are the certifying per-processor serializations (allowed
	// verdicts only).
	Views []ViewExplanation `json:"views,omitempty"`
	// WriteOrder, Coherence, LabeledOrder and LocSerializations mirror the
	// witness's mutual-consistency structures.
	WriteOrder        []OpRef            `json:"write_order,omitempty"`
	Coherence         map[string][]OpRef `json:"coherence,omitempty"`
	LabeledOrder      []OpRef            `json:"labeled_order,omitempty"`
	LocSerializations map[string][]OpRef `json:"loc_serializations,omitempty"`
	// Frontier is the deepest partial serialization reached (operations
	// placed); for an allowed verdict this equals the size of a full view.
	Frontier int `json:"frontier"`
	// Progress carries the check's work counters.
	Progress Progress `json:"progress"`
}

// Explain renders the verdict v of model m on history s into an
// Explanation. It never re-runs the membership check: allowed verdicts
// are explained from their witness, negative and Unknown ones from the
// verdict's progress counters.
func Explain(m Model, s *history.System, v Verdict) (*Explanation, error) {
	e := &Explanation{
		Model:    m.Name(),
		Decided:  v.Decided(),
		Allowed:  v.Decided() && v.Allowed,
		Ops:      s.NumOps(),
		Procs:    s.NumProcs(),
		Frontier: v.Progress.Frontier,
		Progress: v.Progress,
	}
	if !v.Decided() {
		e.Unknown = v.Unknown.String()
		return e, nil
	}
	if !v.Allowed {
		return e, nil
	}
	w := v.Witness
	if w == nil {
		return nil, fmt.Errorf("model: %s: allowed verdict without witness", m.Name())
	}
	sp, ok := m.(Spec)
	if !ok {
		return nil, fmt.Errorf("model: no explanation ingredients for model %q", m.Name())
	}
	e.WriteOrder = opRefs(s, w.WriteOrder)
	if len(w.Coherence) > 0 {
		e.Coherence = make(map[string][]OpRef, len(w.Coherence))
		for loc, seq := range w.Coherence {
			e.Coherence[string(loc)] = opRefs(s, seq)
		}
	}
	e.LabeledOrder = opRefs(s, w.LabeledOrder)
	if len(w.LocSerializations) > 0 {
		e.LocSerializations = make(map[string][]OpRef, len(w.LocSerializations))
	}
	procs := slices.Sorted(maps.Keys(w.Views))
	for _, proc := range procs {
		view := w.Views[proc]
		parts, closed, err := explainParts(sp, s, w, proc)
		if err != nil {
			return nil, err
		}
		e.Views = append(e.Views, explainView(s, int(proc), view, parts, closed))
	}
	// The Coherence model certifies with per-location serializations.
	if len(w.LocSerializations) > 0 {
		var locs []string
		for loc := range w.LocSerializations {
			locs = append(locs, string(loc))
		}
		sort.Strings(locs)
		parts, closed, err := explainParts(sp, s, w, -1)
		if err != nil {
			return nil, err
		}
		for _, loc := range locs {
			view := w.LocSerializations[history.Loc(loc)]
			e.LocSerializations[loc] = opRefs(s, view)
			e.Views = append(e.Views, explainView(s, -1, view, parts, closed))
		}
	}
	if e.Frontier == 0 {
		// Open-loop checks may not have progress counters, but an allowed
		// verdict by construction placed a full view.
		for _, ve := range e.Views {
			if len(ve.Order) > e.Frontier {
				e.Frontier = len(ve.Order)
			}
		}
	}
	return e, nil
}

// explainView renders one serialization with every consecutive pair
// labeled by the constraints that forced it.
func explainView(s *history.System, proc int, view history.View, parts []search.Part, closed *order.Relation) ViewExplanation {
	ve := ViewExplanation{Proc: proc, Order: opRefs(s, view)}
	for i := 0; i+1 < len(view); i++ {
		ve.Edges = append(ve.Edges, ExplainedEdge{
			From: int(view[i]), To: int(view[i+1]),
			Why: edgeWhy(parts, closed, view[i], view[i+1]),
		})
	}
	return ve
}

// opRefs renders a view as operation references.
func opRefs(s *history.System, view history.View) []OpRef {
	if view == nil {
		return nil
	}
	out := make([]OpRef, len(view))
	for i, id := range view {
		o := s.Op(id)
		kind := "r"
		if o.Kind == history.Write {
			kind = "w"
		}
		if o.Labeled {
			kind = strings.ToUpper(kind)
		}
		out[i] = OpRef{
			ID: int(id), Proc: int(o.Proc), Kind: kind,
			Loc: string(o.Loc), Value: int(o.Value), Text: o.String(),
		}
	}
	return out
}

// edgeWhy labels one consecutive pair: the named ingredients containing
// the edge, "derived" when only the closure forces it, "solver" when the
// search chose it freely.
func edgeWhy(parts []search.Part, closed *order.Relation, a, b history.OpID) []string {
	var why []string
	for _, p := range parts {
		if p.Rel != nil && p.Rel.Has(a, b) {
			why = append(why, p.Name)
		}
	}
	if len(why) > 0 {
		return why
	}
	if closed != nil && closed.Has(a, b) {
		return []string{"derived"}
	}
	return []string{"solver"}
}

// explainParts reconstructs the named order ingredients of the spec's
// view requirement for processor proc's view (proc < 0: a per-location
// serialization), from the history and the witness's mutual-consistency
// structures, plus the transitive closure of their union (for "derived"
// attribution). The per-history and per-candidate ingredients come from
// the same builder the checker uses; the mutual-consistency structures
// come from the witness.
func explainParts(sp Spec, s *history.System, w *Witness, proc history.Proc) (parts []search.Part, closed *order.Relation, err error) {
	in, err := sp.ingredients(s)
	if err != nil {
		return nil, nil, err
	}
	parts = in.parts(s)
	if sp.Order&OrderSlow != 0 && proc >= 0 {
		slow := order.New(s.NumOps())
		in.slowOrder(s, proc, slow)
		parts = append(parts, search.Part{Name: "po", Rel: slow})
	}
	switch sp.Mutual {
	case MutualWriteOrder:
		parts = append(parts, search.Part{Name: "write-order", Rel: chainRel(s, w.WriteOrder)})
	case MutualStoreOrder:
		// The axiomatic model's "views" render a memory order, not a view
		// in the paper's sense; the ingredients are the store order and
		// per-processor program order (forwarded loads produce "solver"
		// edges — the freedom the Value axiom grants).
		parts = append(parts, search.Part{Name: "store-order", Rel: chainRel(s, w.WriteOrder)},
			search.Part{Name: "po", Rel: in.po})
	case MutualCoherence, MutualLabeledCoherence, MutualCoherenceLabeledSC:
		parts = append(parts, search.Part{Name: "coherence", Rel: chainsRel(s, w.Coherence)})
		if w.LabeledOrder != nil {
			parts = append(parts, search.Part{Name: "labeled-order", Rel: chainRel(s, w.LabeledOrder)})
		}
		if sp.Order&perCandidate != 0 {
			coh, err := coherenceFromWitness(s, w)
			if err != nil {
				return nil, nil, err
			}
			sem, err := in.candidateOrder(s, coh)
			if err != nil {
				return nil, nil, err
			}
			parts = append(parts, search.Part{Name: "sem", Rel: sem})
		}
	}
	closed = order.New(s.NumOps())
	for _, p := range parts {
		if p.Rel != nil {
			closed.Union(p.Rel)
		}
	}
	closed.TransitiveClosure()
	return parts, closed, nil
}

// chainRel renders a serialization as a total-order relation.
func chainRel(s *history.System, seq history.View) *order.Relation {
	r := order.New(s.NumOps())
	addChain(r, seq)
	return r
}

// chainsRel unions per-location serialization chains into one relation.
func chainsRel(s *history.System, chains map[history.Loc]history.View) *order.Relation {
	r := order.New(s.NumOps())
	for _, seq := range chains {
		addChain(r, seq)
	}
	return r
}

// coherenceFromWitness rebuilds the order.Coherence structure from a
// witness's per-location write orders (needed to recompute semi-causality
// for PC and RCpc explanations).
func coherenceFromWitness(s *history.System, w *Witness) (*order.Coherence, error) {
	m := make(map[history.Loc][]history.OpID, len(w.Coherence))
	for loc, seq := range w.Coherence {
		m[loc] = []history.OpID(seq)
	}
	return order.NewCoherence(s, m)
}

// Text renders the explanation for humans: each view as a chain of
// operations annotated with the constraints that forced each step, then
// the mutual-consistency structures, or the frontier line for undecided
// and negative verdicts.
func (e *Explanation) Text() string {
	var sb strings.Builder
	switch {
	case !e.Decided:
		fmt.Fprintf(&sb, "%s: UNKNOWN (%s)\n", e.Model, e.Unknown)
	case e.Allowed:
		fmt.Fprintf(&sb, "%s: allowed\n", e.Model)
	default:
		fmt.Fprintf(&sb, "%s: not allowed\n", e.Model)
	}
	if !e.Allowed {
		fmt.Fprintf(&sb, "deepest constraint frontier: %d/%d operations placed\n", e.Frontier, e.Ops)
		if e.Progress.Candidates > 0 || e.Progress.Nodes > 0 {
			fmt.Fprintf(&sb, "work: %d candidates, %d nodes\n", e.Progress.Candidates, e.Progress.Nodes)
		}
		return sb.String()
	}
	for _, v := range e.Views {
		if v.Proc >= 0 {
			fmt.Fprintf(&sb, "S_p%d:", v.Proc)
		} else {
			sb.WriteString("serialization:")
		}
		for i, o := range v.Order {
			if i > 0 {
				fmt.Fprintf(&sb, " →{%s}", strings.Join(v.Edges[i-1].Why, ","))
			}
			sb.WriteString(" " + o.Text)
		}
		sb.WriteString("\n")
	}
	if len(e.WriteOrder) > 0 {
		fmt.Fprintf(&sb, "write order: %s\n", refTexts(e.WriteOrder))
	}
	var cohLocs []string
	for loc := range e.Coherence {
		cohLocs = append(cohLocs, loc)
	}
	sort.Strings(cohLocs)
	for _, loc := range cohLocs {
		fmt.Fprintf(&sb, "coherence %s: %s\n", loc, refTexts(e.Coherence[loc]))
	}
	if len(e.LabeledOrder) > 0 {
		fmt.Fprintf(&sb, "labeled SC order: %s\n", refTexts(e.LabeledOrder))
	}
	return sb.String()
}

// JSON renders the explanation as indented JSON.
func (e *Explanation) JSON() ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}

func refTexts(refs []OpRef) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.Text
	}
	return strings.Join(parts, " ")
}

// witness rebuilds the Witness embedded in an allowed explanation.
func (e *Explanation) witness(s *history.System) *Witness {
	w := &Witness{}
	for _, v := range e.Views {
		if v.Proc < 0 {
			continue // Coherence per-location serialization, carried below
		}
		if w.Views == nil {
			w.Views = make(map[history.Proc]history.View)
		}
		w.Views[history.Proc(v.Proc)] = refView(v.Order)
	}
	w.WriteOrder = refView(e.WriteOrder)
	if len(e.Coherence) > 0 {
		w.Coherence = make(map[history.Loc]history.View, len(e.Coherence))
		for loc, refs := range e.Coherence {
			w.Coherence[history.Loc(loc)] = refView(refs)
		}
	}
	w.LabeledOrder = refView(e.LabeledOrder)
	if len(e.LocSerializations) > 0 {
		w.LocSerializations = make(map[history.Loc]history.View, len(e.LocSerializations))
		for loc, refs := range e.LocSerializations {
			w.LocSerializations[history.Loc(loc)] = refView(refs)
		}
	}
	return w
}

func refView(refs []OpRef) history.View {
	if refs == nil {
		return nil
	}
	v := make(history.View, len(refs))
	for i, r := range refs {
		v[i] = history.OpID(r.ID)
	}
	return v
}

// ValidateExplanation replays an allowed explanation against the history:
// the embedded witness must independently verify (VerifyWitness), every
// view's edge list must match its order, and every claimed edge label
// must be re-derivable — a named ingredient must actually contain the
// edge, "derived" edges must be in the ingredients' closure but no single
// ingredient, and "solver" edges must be forced by nothing. Undecided and
// negative explanations validate trivially (there is no certificate to
// replay). This is the acceptance gate for serialized explanations: an
// explanation that round-trips through JSON and still validates is
// evidence in the same sense as the paper's hand-built views.
func ValidateExplanation(m Model, s *history.System, e *Explanation) error {
	if e == nil {
		return fmt.Errorf("model: nil explanation")
	}
	if e.Model != m.Name() {
		return fmt.Errorf("model: explanation is for %q, not %q", e.Model, m.Name())
	}
	if !e.Decided || !e.Allowed {
		return nil
	}
	sp, ok := m.(Spec)
	if !ok {
		return fmt.Errorf("model: no explanation ingredients for model %q", m.Name())
	}
	w := e.witness(s)
	if err := VerifyWitness(m, s, w); err != nil {
		return fmt.Errorf("model: explanation witness does not verify: %w", err)
	}
	for _, v := range e.Views {
		if len(v.Edges) != max(0, len(v.Order)-1) {
			return fmt.Errorf("model: %s: view of p%d has %d edges for %d operations", e.Model, v.Proc, len(v.Edges), len(v.Order))
		}
		parts, closed, err := explainParts(sp, s, w, history.Proc(v.Proc))
		if err != nil {
			return err
		}
		for i, edge := range v.Edges {
			a, b := history.OpID(edge.From), history.OpID(edge.To)
			if int(a) != v.Order[i].ID || int(b) != v.Order[i+1].ID {
				return fmt.Errorf("model: %s: view of p%d: edge %d does not connect consecutive operations", e.Model, v.Proc, i)
			}
			want := edgeWhy(parts, closed, a, b)
			if !slices.Equal(edge.Why, want) {
				return fmt.Errorf("model: %s: view of p%d: edge %v→%v claims %v, re-derivation gives %v", e.Model, v.Proc, a, b, edge.Why, want)
			}
		}
	}
	return nil
}
