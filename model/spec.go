package model

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/history"
	"repro/internal/search"
	"repro/order"
)

// Spec defines a memory model by the three parameters of the paper's
// framework — the operation set δp of each processor's view, the mutual
// consistency relating the views, and the ordering every view respects —
// and Allows is the one checker that interprets them. Every model in this
// package is a Spec value, and a Spec is the way to define a new one (the
// paper's Section 7; see examples/newmemory).
//
// The procedure a check uses under RouteAuto is derived from the
// parameters, not chosen per model (see Procedure): independent views, or
// one common serialization, are decided by the polynomial fast path; a
// write order, coherence order or store order is enumerated behind a
// forced-edge pre-pass; everything else is plain enumeration.
type Spec struct {
	// Title is the model's name, as Name reports it.
	Title string
	// Ops is the operation set of each view.
	Ops Ops
	// Mutual is the mutual-consistency requirement relating the views.
	Mutual Mutual
	// Order is the set of order ingredients every view respects.
	Order Ingredient
	// Workers sizes the pool that enumerates the mutual-consistency
	// candidates: 0 (the default) uses one worker per CPU, 1 forces the
	// sequential oracle path, and larger values set the pool size
	// explicitly. Verdicts are identical at every setting. Specs whose
	// views are independent have nothing to enumerate and ignore it.
	Workers int
}

// Ops is the operation set δp of a processor's view.
type Ops uint8

const (
	// OpsAll: every view holds every operation (δp = a).
	OpsAll Ops = iota
	// OpsWrites: a view holds its processor's own operations and every
	// other processor's writes (δp = w).
	OpsWrites
	// OpsLocation: one serialization per location, of the operations on
	// that location (cache coherence).
	OpsLocation
)

// Mutual is the mutual-consistency requirement relating the views.
type Mutual uint8

const (
	// MutualNone: the views are independent.
	MutualNone Mutual = iota
	// MutualIdentical: all views are one serialization (with OpsAll).
	MutualIdentical
	// MutualWriteOrder: all views agree on one total order of all writes.
	MutualWriteOrder
	// MutualCoherence: all views agree on one total order of the writes
	// to each location.
	MutualCoherence
	// MutualLabeledCoherence: MutualCoherence over the labeled writes
	// only.
	MutualLabeledCoherence
	// MutualCoherenceLabeledSC: MutualCoherence, and the labeled
	// operations admit one legal sequentially consistent serialization
	// that every view embeds.
	MutualCoherenceLabeledSC
	// MutualStoreOrder: one total order of the stores, respecting program
	// order, into which each processor's loads are placed by the value
	// axiom of Sindhu et al., store-buffer forwarding included. Its
	// "views" are memory orders, not sequentially legal views.
	MutualStoreOrder
)

// Ingredient is a set of order ingredients, combined with |.
type Ingredient uint16

const (
	// OrderPO is program order →po.
	OrderPO Ingredient = 1 << iota
	// OrderPPO is the partial program order →ppo, which lets a read
	// bypass an earlier write to a different location.
	OrderPPO
	// OrderCausal is causal order →co = (→po ∪ →wb)+.
	OrderCausal
	// OrderSemiCausal is PC's semi-causality order
	// →sem = (→ppo ∪ →rwb ∪ →rrb)+, built once per coherence candidate.
	OrderSemiCausal
	// OrderBracket is RC's bracketing: ordinary operations follow the
	// write their processor's preceding acquire observed, and precede
	// the processor's next release.
	OrderBracket
	// OrderFence makes every labeled operation a full fence: ordinary
	// operations of its processor stay on their side of it.
	OrderFence
	// OrderSlow is slow memory's order, built once per view: the
	// processor's own program order, plus program order between another
	// processor's writes to the same location.
	OrderSlow
	// OrderLabeledSemiCausal is the semi-causality order of the labeled
	// subhistory, built once per coherence candidate.
	OrderLabeledSemiCausal
)

// perCandidate are the ingredients that depend on the enumerated
// coherence order.
const perCandidate = OrderSemiCausal | OrderLabeledSemiCausal

// SC is sequential consistency (Lamport 1979). In the framework's terms:
// every processor's view contains all operations of all processors
// (δp = a), all views are identical, and the common view respects program
// order. Equivalently — and as checked — the history is SC when one legal
// serialization of all operations respects every processor's program
// order.
var SC = Spec{Title: "SC", Ops: OpsAll, Mutual: MutualIdentical, Order: OrderPO}

// TSO is total store ordering (Sindhu, Frailong and Cekleov 1991), the
// SPARC memory model. In the framework's terms: δp = w; mutual consistency
// requires all views to agree on the order of all writes (S_{p+w}|w is the
// same sequence for every p); views respect the partial program order
// →ppo, which permits a read to bypass an earlier write to a different
// location — the observable effect of a FIFO store buffer.
//
// The checker enumerates candidate global write orders (linear extensions
// of program order over the writes) and, for each, asks whether every
// processor has a legal view embedding that write order. The enumeration
// is sharded across a worker pool with first-witness cancellation; see the
// package comment and Spec.Workers.
var TSO = Spec{Title: "TSO", Ops: OpsWrites, Mutual: MutualWriteOrder, Order: OrderPPO}

// TSOAxiomatic is the SPARC total store ordering of Sindhu, Frailong and
// Cekleov [17], which the paper's Section 3.2 claims its view-based TSO
// captures and Section 6 compares against. The axioms, over a memory order
// on operations:
//
//   - Order: the stores are totally ordered, consistently with each
//     processor's program order (StoreStore).
//   - LoadOp: a load precedes, in memory order, every program-order-later
//     operation of its processor.
//   - Value: a load L of location x returns the value of the memory-order
//     maximum of {stores to x at or before L in memory order} ∪ {stores to
//     x issued by L's processor before L in program order} — the second
//     set is store-buffer forwarding: a processor may read its own store
//     before the store reaches memory.
//   - Termination: every operation eventually performs (implicit here,
//     as in the paper's framework: every operation is placed).
//
// There is deliberately no Store→Load order axiom — that is the TSO
// relaxation — and, unlike the paper's view-based TSO, no same-location
// write→read ordering either: forwarding lets a load complete before its
// own processor's earlier store to the same location. The two models
// therefore differ, and this checker makes the difference measurable: the
// SB+rfi history is allowed here and rejected by the paper's TSO.
//
// In the containment order, paper-TSO ⊊ TSOAxiomatic ⊊ PRAM, and
// TSOAxiomatic is INCOMPARABLE with the paper's PC: PC lacks a global
// store order (Figure 2 is PC-only), but PC's ppo also forbids store
// forwarding, which this model requires (litmus test TSOax-not-PC, found
// by the exhaustive shape sweep). The paper's framework cannot express
// forwarding in any of its models, because view legality makes a read
// observe the most recent write *placed before it*; hence its own Mutual
// kind, MutualStoreOrder.
//
// The checker enumerates store orders (linear extensions of per-processor
// store order; under RouteAuto, also of the store→store edges the axioms
// force, see storeOrderEdges) and, for each, greedily assigns every load a
// position — the number of stores memory-ordered before it — in program
// order per processor; minimal feasible positions are optimal, so the
// greedy assignment is complete.
var TSOAxiomatic = Spec{Title: "TSO-ax", Ops: OpsWrites, Mutual: MutualStoreOrder}

// PC is processor consistency as defined operationally by Gharachorloo et
// al. for the DASH architecture and formalized in the paper's Section 3.3:
// δp = w; mutual consistency is coherence (a per-location total write order
// shared by all views); views respect the semi-causality order
// →sem = (→ppo ∪ →rwb ∪ →rrb)+, which weakens causality to what DASH's
// "perform with respect to" conditions actually enforce.
var PC = Spec{Title: "PC", Ops: OpsWrites, Mutual: MutualCoherence, Order: OrderPPO | OrderSemiCausal}

// Causal is causal memory (Ahamad, Burns, Hutto and Neiger 1991). Like
// PRAM it has δp = w and no mutual-consistency requirement, but views must
// respect the causal order →co = (→po ∪ →wb)+ rather than just program
// order. The checker requires unambiguous reads-from resolution (distinct
// write values) to construct →wb.
var Causal = Spec{Title: "Causal", Ops: OpsWrites, Mutual: MutualNone, Order: OrderCausal}

// PRAM is pipelined RAM (Lipton and Sandberg 1988). Views contain a
// processor's own operations plus all writes of other processors (δp = w);
// there is no mutual-consistency requirement; each view respects full
// program order. Each processor's view problem is independent, which is
// what makes PRAM the weakest memory in the paper's Figure 5.
var PRAM = Spec{Title: "PRAM", Ops: OpsWrites, Mutual: MutualNone, Order: OrderPO}

// Coherence is cache consistency: operations on each individual location
// are serializable respecting program order, with no constraint across
// locations. The paper uses coherence as the mutual-consistency ingredient
// of PC and RC; as a standalone model it is weaker than PRAM on
// multi-location histories but incomparable in general.
var Coherence = Spec{Title: "Coherence", Ops: OpsLocation, Mutual: MutualNone, Order: OrderPO}

// WO is weak ordering (Dubois, Scheurich and Briggs 1988), the
// synchronization-based precursor the paper's Section 3.4 names alongside
// hybrid consistency. Our axiomatization in the paper's framework — the
// paper itself does not formalize WO, so this is this repository's
// rendering of "synchronizing accesses are strongly ordered and act as
// fences":
//
//   - δp = w, mutual consistency is coherence, labeled operations admit a
//     single legal sequentially consistent serialization (as in RCsc);
//   - every labeled operation of a processor is a FULL fence: every
//     ordinary operation before it in program order precedes it in all
//     views, and every ordinary operation after it follows it — stronger
//     than release consistency's one-sided bracketing, which lets an
//     ordinary operation drift forward past a release or backward past an
//     acquire it does not depend on;
//   - local operations respect the partial program order, and the RC
//     bracketing conditions hold a fortiori.
//
// By construction WO's constraint set contains RCsc's, so WO ⊆ RCsc as
// sets of histories; the corpus test WO-release-fence witnesses
// strictness (an ordinary read hoisted above an earlier release, legal
// under RCsc, illegal under WO).
var WO = Spec{Title: "WO", Ops: OpsWrites, Mutual: MutualCoherenceLabeledSC, Order: OrderPPO | OrderBracket | OrderFence}

// RCsc is release consistency with sequentially consistent synchronization
// operations, as provided by the DASH architecture (Gharachorloo et al.
// 1990; paper Section 3.4). Views have δp = w, mutual consistency is
// coherence over all writes, local operations respect →ppo, ordinary
// operations are bracketed by the labeled operations around them (an
// ordinary operation follows the write its preceding acquire observed, and
// precedes any later release by the same processor, in every view), and the
// labeled operations admit a single legal sequentially consistent
// serialization that every view embeds.
//
// Note on the paper's second bracketing condition: the text reads "if o is
// an ordinary operation of p that precedes a labeled write operation
// (release) o_w of p, then o follows o_w in all histories", but the
// sentence that follows ("these two conditions ensure that ordinary
// operations are ordered, in all views, between the labeled operations
// that bracket them") and the RC definition it formalizes ("an ordinary
// operation completes before the following release operation is
// performed") make clear this is a typo for "o precedes o_w"; we implement
// the bracketing reading.
var RCsc = Spec{Title: "RCsc", Ops: OpsWrites, Mutual: MutualCoherenceLabeledSC, Order: OrderPPO | OrderBracket}

// RCpc is release consistency with processor consistent synchronization
// operations: identical to RCsc except the labeled operations need only
// satisfy PC — each processor may arrange others' labeled writes in its own
// semi-causally consistent order. The paper's Section 5 shows Lamport's
// Bakery algorithm is correct on RCsc but not on RCpc; package explore
// reproduces that separation.
var RCpc = Spec{Title: "RCpc", Ops: OpsWrites, Mutual: MutualCoherence, Order: OrderPPO | OrderBracket | OrderLabeledSemiCausal}

// PCG is Goodman's processor consistency (Goodman 1989, as formalized by
// Ahamad, Bazzi, John, Kohli and Neiger 1992): PRAM plus coherence. Views
// (δp = w) respect full program order — unlike DASH PC there is no
// write→read bypass — and all views agree on a per-location write order,
// but there is no semi-causality requirement. The paper notes (citing [2])
// that PCG and DASH PC are incomparable; package relate demonstrates this
// empirically.
var PCG = Spec{Title: "PCG", Ops: OpsWrites, Mutual: MutualCoherence, Order: OrderPO}

// CausalCoherent is the new memory sketched in the paper's Section 7:
// causal memory with an added coherence mutual-consistency requirement.
// Views respect causal order and agree on a per-location write order. It
// is strictly stronger than causal memory and than PCG, and remains
// incomparable with TSO.
var CausalCoherent = Spec{Title: "Causal+Coh", Ops: OpsWrites, Mutual: MutualCoherence, Order: OrderCausal}

// CausalLabeledCoherent is the second new memory the paper's Section 7
// sketches: "perhaps such coherence can only be required for labeled
// operations" — causal memory whose mutual-consistency requirement is a
// shared write order per location over the LABELED writes only; ordinary
// writes to the same location may still be observed in different orders by
// different processors. It sits strictly between Causal and CausalCoherent:
// more histories than the latter (ordinary coherence dropped), fewer than
// the former (labeled coherence kept).
var CausalLabeledCoherent = Spec{Title: "Causal+LCoh", Ops: OpsWrites, Mutual: MutualLabeledCoherence, Order: OrderCausal}

// Slow is slow memory (Hutto and Ahamad 1990), from the same research
// lineage as the paper's causal memory and a natural floor for its Figure
// 5 lattice: the weakest memory here that still deserves the name. In the
// framework's parameters: δp = w, no mutual consistency, and views must
// respect only (a) the processor's own program order and (b) program order
// between another processor's writes TO THE SAME LOCATION. Writes by one
// processor to different locations may be observed in either order — the
// guarantee PRAM adds and slow memory drops. Consequently PRAM ⊊ Slow
// (message passing separates them: MP is slow-memory-legal).
var Slow = Spec{Title: "Slow", Ops: OpsWrites, Mutual: MutualNone, Order: OrderSlow}

// Name implements Model.
func (sp Spec) Name() string { return sp.Title }

// enumerates reports whether the spec has mutual-consistency candidates
// to enumerate (and so a use for Workers).
func (sp Spec) enumerates() bool { return sp.Mutual != MutualNone && sp.Mutual != MutualIdentical }

// validate rejects parameter combinations the checker cannot interpret.
func (sp Spec) validate() error {
	ok := true
	switch {
	case sp.Ops == OpsAll || sp.Mutual == MutualIdentical:
		ok = sp.Ops == OpsAll && sp.Mutual == MutualIdentical
	case sp.Ops == OpsLocation:
		ok = sp.Mutual == MutualNone
	}
	if sp.Order&OrderSlow != 0 {
		ok = ok && sp.Ops == OpsWrites && sp.Mutual == MutualNone
	}
	if sp.Mutual == MutualStoreOrder {
		ok = ok && sp.Order == 0 // the value axiom replaces view orders
	}
	if c := sp.Order & perCandidate; c != 0 {
		ok = ok && c != perCandidate && (sp.Mutual == MutualCoherence || sp.Mutual == MutualCoherenceLabeledSC)
	}
	if !ok {
		return fmt.Errorf("model: %s: unsupported spec (ops %d, mutual %d, order %#x)", sp.Title, sp.Ops, sp.Mutual, sp.Order)
	}
	return nil
}

// procedure is the RouteAuto decision procedure of a spec.
type procedure uint8

const (
	plainEnumeration procedure = iota
	fastPath                   // saturate + greedy construction per view problem
	prePass                    // forced-edge pre-pass ahead of the enumeration
)

// procedure derives the spec's RouteAuto procedure from its parameters,
// one rule per kind of mutual consistency. Independent (or identical)
// views take the fast path. A write
// order or a coherence order (with or without a labeled SC serialization)
// is enumerated behind the forced-edge pre-pass: every per-history
// ingredient — program order, bracket, fence, causal order — binds every
// view on the view's own operations, so saturating each view under it
// (restricted to those operations) derives only edges the shared order
// must contain, and per-candidate ingredients only add constraints after
// it. A store order is enumerated behind the value-axiom pre-pass
// (storeOrderEdges). Slow memory's per-view order, which validate admits
// only with independent views, is built before each view problem and
// takes the fast path with it. Labeled coherence is plain enumeration.
func (sp Spec) procedure() procedure {
	switch sp.Mutual {
	case MutualNone, MutualIdentical:
		return fastPath
	case MutualWriteOrder, MutualCoherence, MutualCoherenceLabeledSC, MutualStoreOrder:
		return prePass
	}
	return plainEnumeration
}

// Procedure names the decision procedure m uses under RouteAuto, derived
// from its Spec. README's model→procedure table is this function's output
// over All().
func Procedure(m Model) string {
	sp, ok := m.(Spec)
	if !ok {
		return "model-defined"
	}
	switch sp.procedure() {
	case fastPath:
		switch {
		case sp.Ops == OpsAll:
			return "saturate + greedy construction (pruned search fallback)"
		case sp.Ops == OpsLocation:
			return "per-location saturate + greedy construction"
		case sp.Order&OrderCausal != 0:
			return "per-process saturate + greedy construction over causal order"
		case sp.Order&OrderSlow != 0:
			return "per-process saturate + greedy construction over each view's slow order"
		}
		return "per-process saturate + greedy construction"
	case prePass:
		switch sp.Mutual {
		case MutualWriteOrder:
			return "forced-edge pre-pass + write-order enumeration"
		case MutualStoreOrder:
			return "value-axiom store-order pre-pass + store-order enumeration"
		}
		return "forced-edge pre-pass + coherence enumeration"
	}
	return "enumeration"
}

// WithWorkers returns a copy of m with its worker-count knob set, for the
// specs that enumerate mutual-consistency structures; specs with nothing
// to parallelize (independent or identical views — a fixed handful of
// view problems each) are returned unchanged. The knob follows the pool
// convention: 0 = one worker per CPU (the default), 1 = the sequential
// oracle path, larger = an explicit pool size.
func WithWorkers(m Model, workers int) Model {
	if sp, ok := m.(Spec); ok && sp.enumerates() {
		sp.Workers = workers
		return sp
	}
	return m
}

// Allows implements Model: it decides whether s is allowed by the memory
// the spec defines, under ctx's deadline, cancellation, budget and route.
// Call it through the package-level AllowsCtx, which also returns Unknown
// for an already-dead context and attributes the solve to its route.
func (sp Spec) Allows(ctx context.Context, s *history.System) (Verdict, error) {
	if err := sp.validate(); err != nil {
		return rejected, err
	}
	if err := checkSize(sp.Title, s); err != nil {
		return rejected, err
	}
	in, err := sp.ingredients(s)
	if err != nil {
		return rejected, err
	}
	r := newRun(ctx, sp.Title, sp.Workers, s)
	if in.co != nil && in.co.HasCycle() {
		// A cycle in causal order (e.g. a read observing a write that
		// causally follows it) admits no views at all.
		r.probe.Constraint("causal-cycle", "causal order (po ∪ wb)+ is cyclic")
		return r.finish(nil, nil)
	}
	var w *Witness
	switch sp.Mutual {
	case MutualNone, MutualIdentical:
		w, err = sp.solveEach(r, s, in)
	case MutualWriteOrder, MutualStoreOrder:
		w, err = sp.searchWriteOrders(r, s, in)
	default:
		w, err = sp.searchCoherences(r, s, in)
	}
	return r.finish(w, err)
}

// ingredients are a spec's order ingredients for one history, built once
// per check. The checker and Explain both build them here.
type ingredients struct {
	sp Spec
	// po is program order, which every candidate write or coherence
	// order extends (nil when no ingredient or candidate needs it).
	po *order.Relation
	// rels are the per-history ingredients, by name, in Order's bit
	// order (backed by relBuf: there are at most five); base is their
	// union (empty when there are none).
	rels   []search.Part
	relBuf [5]search.Part
	base   *order.Relation
	// co is the causal order when it is an ingredient (its cycle check
	// rejects outright); sub and toGlobal are the labeled subhistory and
	// its operation mapping, for OrderLabeledSemiCausal.
	co       *order.Relation
	sub      *history.System
	toGlobal []history.OpID
}

// ingredients builds the per-history ingredients, failing for histories
// the spec's orders cannot be built on: ambiguous reads-from for
// semi-causal, bracket and causal orders, and mixed labeled/ordinary
// locations wherever labeled operations are serialized apart.
func (sp Spec) ingredients(s *history.System) (*ingredients, error) {
	if sp.Order&(perCandidate|OrderBracket) != 0 {
		if err := requireUnambiguousReadsFrom(sp.Title, s); err != nil {
			return nil, err
		}
	}
	if sp.Order&OrderLabeledSemiCausal != 0 || sp.Mutual == MutualCoherenceLabeledSC {
		if err := validateLabelSeparation(sp.Title, s); err != nil {
			return nil, err
		}
	}
	in := &ingredients{sp: sp}
	if sp.Order&(OrderPO|OrderSlow) != 0 || sp.enumerates() {
		in.po = order.Program(s)
	}
	in.rels = in.relBuf[:0]
	add := func(name string, rel *order.Relation) {
		in.rels = append(in.rels, search.Part{Name: name, Rel: rel})
	}
	if sp.Order&OrderPO != 0 {
		add("po", in.po)
	}
	if sp.Order&OrderPPO != 0 {
		add("ppo", order.PartialProgram(s))
	}
	if sp.Order&OrderCausal != 0 {
		co, err := order.Causal(s)
		if err != nil {
			return nil, err
		}
		in.co = co
		add("causal", co)
	}
	if sp.Order&OrderBracket != 0 {
		bracket, err := bracketEdges(s)
		if err != nil {
			return nil, fmt.Errorf("model: %s: %w", sp.Title, err)
		}
		add("bracket", bracket)
	}
	if sp.Order&OrderFence != 0 {
		add("fence", fenceEdges(s))
	}
	if sp.Order&OrderLabeledSemiCausal != 0 {
		in.sub, in.toGlobal = labeledSubsystem(s)
	}
	switch len(in.rels) {
	case 0:
		// A per-view order or a store order replaces base entirely.
		if sp.Order&OrderSlow == 0 && sp.Mutual != MutualStoreOrder {
			in.base = order.New(s.NumOps())
		}
	case 1:
		in.base = in.rels[0].Rel
	default:
		in.base = in.rels[0].Rel.Clone()
		for _, p := range in.rels[1:] {
			in.base.Union(p.Rel)
		}
	}
	return in, nil
}

// parts names the per-history ingredients for prune attribution and
// explanations. Causal order is charged to its sources first: program
// order, then writes-before, then the rest of its closure.
func (in *ingredients) parts(s *history.System) []search.Part {
	parts := make([]search.Part, 0, len(in.rels)+2)
	for _, p := range in.rels {
		if p.Name == "causal" {
			po := in.po
			if po == nil {
				po = order.Program(s)
			}
			parts = append(parts, search.Part{Name: "po", Rel: po})
			if wb, err := order.WritesBefore(s); err == nil {
				parts = append(parts, search.Part{Name: "wb", Rel: wb})
			}
		}
		parts = append(parts, p)
	}
	return parts
}

// baseName names base as one prune part, for the fast path.
func (in *ingredients) baseName() (name string) {
	for i, p := range in.rels {
		if i > 0 {
			name += "+"
		}
		name += p.Name
	}
	return name
}

// slowOrder makes prec OrderSlow for proc's view: proc's own operations in
// program order; others' writes ordered only within (processor, location)
// groups.
func (in *ingredients) slowOrder(s *history.System, proc history.Proc, prec *order.Relation) {
	prec.Reset()
	for i := 0; i < s.NumOps(); i++ {
		a := history.OpID(i)
		own := s.Op(a).Proc == proc
		for w, word := range in.po.Row(a) {
			for ; word != 0; word &= word - 1 {
				b := history.OpID(w*64 + bits.TrailingZeros64(word))
				if own || s.LocOf(a) == s.LocOf(b) {
					prec.Add(a, b)
				}
			}
		}
	}
}

// candidateOrder builds the per-candidate ingredient under coherence order
// coh: the semi-causality order of the history, or of its labeled
// subhistory mapped back onto the history's operations. It returns nil
// when the spec has none.
func (in *ingredients) candidateOrder(s *history.System, coh *order.Coherence) (*order.Relation, error) {
	if in.sp.Order&OrderSemiCausal != 0 {
		return order.SemiCausal(s, coh)
	}
	if in.sp.Order&OrderLabeledSemiCausal == 0 {
		return nil, nil
	}
	subCoh, err := restrictCoherence(s, in.sub, in.toGlobal, coh)
	if err != nil {
		return nil, err
	}
	semSub, err := order.SemiCausal(in.sub, subCoh)
	if err != nil {
		return nil, err
	}
	sem := order.New(s.NumOps())
	for _, pr := range semSub.Pairs() {
		sem.Add(in.toGlobal[pr[0]], in.toGlobal[pr[1]])
	}
	return sem, nil
}

// solveEach decides a spec whose views are independent, or one common
// serialization: one view problem for the whole history, per location, or
// per processor. On the fast path each problem is saturated and built
// greedily; a problem whose reads-from is ambiguous falls back to the
// memoized search.
func (sp Spec) solveEach(r *run, s *history.System, in *ingredients) (*Witness, error) {
	fast := r.fastpath() && sp.procedure() == fastPath
	var name string
	if fast {
		name = in.baseName()
	}
	var slow *order.Relation
	if sp.Order&OrderSlow != 0 {
		slow, name = order.New(s.NumOps()), "po"
	}
	var parts []search.Part
	if r.instrumented() {
		parts = in.parts(s)
	}
	solve := func(ops []history.OpID, prec *order.Relation, parts []search.Part, scope func() string) (history.View, bool, error) {
		if fast {
			v, ok, err := r.fastFindView(s, ops, prec, name, scope)
			if !errors.Is(err, errFastPathUnavailable) {
				return v, ok, err
			}
		}
		return search.FindView(r.problem(s, ops, prec, parts))
	}
	switch sp.Ops {
	case OpsAll:
		v, ok, err := solve(s.Ops(), in.base, parts, func() string { return "the common serialization" })
		if err != nil || !ok {
			return nil, err
		}
		views := make(map[history.Proc]history.View, s.NumProcs())
		for p := 0; p < s.NumProcs(); p++ {
			views[history.Proc(p)] = v
		}
		return &Witness{Views: views}, nil
	case OpsLocation:
		sers := make(map[history.Loc]history.View)
		for _, loc := range s.Locs() {
			v, ok, err := solve(s.OpsOn(loc), in.base, parts, func() string { return "location " + string(loc) })
			if err != nil || !ok {
				return nil, err
			}
			sers[loc] = v
		}
		return &Witness{LocSerializations: sers}, nil
	}
	views := make(map[history.Proc]history.View, s.NumProcs())
	for p := 0; p < s.NumProcs(); p++ {
		proc := history.Proc(p)
		prec, viewParts := in.base, parts
		if slow != nil {
			in.slowOrder(s, proc, slow)
			prec = slow
			if r.instrumented() {
				viewParts = append(parts[:len(parts):len(parts)], search.Part{Name: "po", Rel: prec})
			}
		}
		v, ok, err := solve(r.views[p], prec, viewParts, func() string { return fmt.Sprintf("processor p%d's view", p) })
		if err != nil || !ok {
			return nil, err
		}
		views[proc] = v
	}
	return &Witness{Views: views}, nil
}

// searchWriteOrders enumerates the candidate global write (or store)
// orders — linear extensions of program order over the writes — and tests
// each: every processor must have a legal view embedding the write order,
// or, for a store order, every load must find its place in it.
func (sp Spec) searchWriteOrders(r *run, s *history.System, in *ingredients) (*Witness, error) {
	writes := s.Writes()
	before := func(a, b int) bool { return in.po.Has(writes[a], writes[b]) }
	var parts []search.Part
	if r.instrumented() {
		parts = in.parts(s)
	}
	if r.fastpath() && sp.procedure() == prePass {
		// Every forced write→write edge of any processor's view (every
		// store→store edge the TSO-ax axioms force) is an edge of the
		// agreed global order, so it prunes the linear-extension space up
		// front; a forced cycle forbids outright.
		var forced *order.Relation
		var decided bool
		var err error
		if sp.Mutual == MutualStoreOrder {
			forced, decided, err = r.storeOrderPrepass(s)
		} else {
			forced, decided, err = r.forcedWriteEdges(s, in.base, false)
		}
		if err != nil || decided {
			return nil, err
		}
		if forced != nil {
			before = func(a, b int) bool {
				return in.po.Has(writes[a], writes[b]) || forced.Has(writes[a], writes[b])
			}
			if parts != nil {
				parts = append(parts, search.Part{Name: "fastpath", Rel: forced})
			}
		}
	}
	return r.searchLinearExtensions(len(writes), before, func(ord []int) (*Witness, error) {
		wseq := make([]history.OpID, len(ord))
		for i, k := range ord {
			wseq[i] = writes[k]
		}
		if sp.Mutual == MutualStoreOrder {
			views, ok := axiomaticAssign(s, wseq)
			if !ok {
				return nil, nil
			}
			return &Witness{Views: views, WriteOrder: wseq}, nil
		}
		prec := r.cloneRel(in.base)
		addChain(prec, wseq)
		var candParts []search.Part
		if parts != nil {
			candParts = append(parts[:len(parts):len(parts)], search.Part{Name: "write-order", Rel: chainRel(s, wseq)})
		}
		views, err := r.solveViews(s, prec, candParts)
		r.releaseRel(prec)
		if err != nil || views == nil {
			return nil, err
		}
		return &Witness{Views: views, WriteOrder: wseq}, nil
	})
}

// searchCoherences enumerates the candidate coherence orders — per
// location, linear extensions of program order over the location's
// (labeled) writes — and tests each: the per-candidate ingredient must be
// acyclic, and every processor must have a legal view respecting the
// ingredients and the coherence order (embedding, where the spec asks for
// one, a labeled SC serialization).
func (sp Spec) searchCoherences(r *run, s *history.System, in *ingredients) (*Witness, error) {
	candRel := in.po
	if r.fastpath() && sp.procedure() == prePass {
		var decided bool
		var err error
		candRel, decided, err = r.coherencePrepass(s, in.po, in.base)
		if err != nil || decided {
			return nil, err
		}
	}
	var parts []search.Part
	if r.instrumented() {
		parts = in.parts(s)
	}
	var labeled []history.OpID
	if sp.Mutual == MutualCoherenceLabeledSC {
		labeled = s.Labeled()
	}
	labeledOnly := sp.Mutual == MutualLabeledCoherence
	return r.searchCoherence(s, candRel, labeledOnly, func(seqs map[history.Loc][]history.OpID) (*Witness, error) {
		var coh *order.Coherence
		if !labeledOnly {
			var err error
			if coh, err = order.NewCoherence(s, seqs); err != nil {
				return nil, err
			}
		}
		sem, err := in.candidateOrder(s, coh)
		if err != nil {
			return nil, err
		}
		if sem != nil && sem.HasCycle() {
			msg := "semi-causal order is cyclic under this coherence order"
			if sp.Order&OrderLabeledSemiCausal != 0 {
				msg = "labeled-subhistory " + msg
			}
			r.probe.Constraint("sem-cycle", msg)
			return nil, nil // incompatible coherence order; try next
		}
		prec := r.cloneRel(in.base)
		defer r.releaseRel(prec)
		for _, seq := range seqs {
			prec.AddChain(seq)
		}
		if sem != nil {
			prec.Union(sem)
		}
		var candParts []search.Part
		if parts != nil {
			chain := order.New(s.NumOps())
			for _, seq := range seqs {
				chain.AddChain(seq)
			}
			candParts = append(parts[:len(parts):len(parts)], search.Part{Name: "coherence", Rel: chain})
			if sem != nil {
				candParts = append(candParts, search.Part{Name: "sem", Rel: sem})
			}
		}
		var w *Witness
		if sp.Mutual == MutualCoherenceLabeledSC {
			w, err = rcscLabeledSearch(r, s, labeled, in.po, coh, prec, candParts)
		} else {
			var views map[history.Proc]history.View
			if views, err = r.solveViews(s, prec, candParts); views != nil {
				w = &Witness{Views: views}
			}
		}
		if err != nil || w == nil {
			return nil, err
		}
		w.Coherence = make(map[history.Loc]history.View, len(seqs))
		for loc, seq := range seqs {
			// A copy: seq shares its backing array with every other
			// candidate order of loc (collectExtensions).
			w.Coherence[loc] = slices.Clone(seq)
		}
		return w, nil
	})
}
