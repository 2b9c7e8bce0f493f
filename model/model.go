// Package model implements the memory consistency models of Kohli, Neiger
// and Ahamad's framework as decision procedures. Each Model answers the
// question at the heart of the paper: is a given system execution history
// allowed by this memory? A positive answer comes with a Witness — the
// per-processor views (and, where applicable, the write order, coherence
// order or labeled-operation serialization) that certify it, exactly the
// objects the paper constructs by hand in its figures.
//
// The models implemented are those the paper defines: sequential
// consistency (SC), total store ordering (TSO), the DASH flavour of
// processor consistency (PC), PRAM, causal memory, cache coherence, and
// release consistency with sequentially consistent (RCsc) or processor
// consistent (RCpc) synchronization operations. Six extensions round out
// the lattice: the axiomatic SPARC TSO of Sindhu et al. (TSOAxiomatic),
// Goodman's processor consistency (PCG), weak ordering (WO), slow memory
// (Slow), and both memories the paper's Section 7 sketches
// (CausalCoherent and CausalLabeledCoherent).
//
// Every model is data: a Spec of the paper's three parameters — the
// operation set of each view, the mutual consistency across views, and the
// order ingredients each view respects — interpreted by one checker. A new
// memory in the framework is one more Spec value.
//
// Deciding these questions is NP-hard in general (it subsumes verifying
// sequential consistency), so the checkers enumerate candidate mutual-
// consistency structures (write orders, coherence orders) and solve
// view-existence subproblems with a memoized search; they are intended for
// litmus-scale histories — tens of operations — which they decide in
// micro- to milliseconds.
//
// # Parallel checking
//
// The enumerating checkers (TSO, TSO-ax, PC, PCG, RCsc, RCpc, WO,
// Causal+Coh, Causal+LCoh) shard their candidate spaces across a worker
// pool (internal/perm, internal/pool): the space of linear extensions or
// coherence products is split by prefix into independent subtrees, workers
// test candidates concurrently, and the first shard to find a witness
// cancels the rest via context. Spec.Workers sizes the pool — 0 (the zero
// value) uses one worker per CPU, 1 selects the sequential oracle path,
// larger values set the size explicitly — and WithWorkers sets the knob on
// any model. Verdicts are identical at every setting; the
// witness found may differ between runs, but every witness independently
// verifies (VerifyWitness).
//
// # Bounded checking
//
// Because deciding membership is NP-hard, every check is budgeted and
// cancellable: the one check call, AllowsCtx(ctx, m, s), observes the
// context's deadline and cancellation plus any Budget attached with
// WithBudget (candidate and search-node caps), and returns a three-valued
// Verdict — Allowed, not allowed, or Unknown with a typed reason
// (DeadlineExceeded, BudgetExhausted, Canceled) and progress counters.
// Budgets never flip an answer: a decided verdict under a budget equals
// the unbudgeted verdict; when the budget trips first, the checker
// withholds the answer rather than guessing.
package model

import (
	"context"
	"fmt"
	"sort"

	"repro/history"
	"repro/internal/budget"
	"repro/internal/perm"
	"repro/internal/search"
	"repro/order"
)

// Witness certifies that a history is allowed by a model. Views maps each
// processor to its sequential view S_{p+δp}. Depending on the model, the
// auxiliary fields record the enumerated mutual-consistency structure that
// made the views possible.
type Witness struct {
	// Views holds one legal view per processor. For SC all entries are
	// the same serialization.
	Views map[history.Proc]history.View
	// WriteOrder is TSO's agreed total order on all writes (S|w).
	WriteOrder history.View
	// Coherence is the per-location write order used by PC, PCG, RC and
	// causal+coherent memory.
	Coherence map[history.Loc]history.View
	// LabeledOrder is RCsc's sequentially consistent serialization of
	// the labeled operations.
	LabeledOrder history.View
	// LocSerializations holds the per-location serializations produced
	// by the cache-coherence checker (reads included).
	LocSerializations map[history.Loc]history.View
}

// Verdict is the three-valued result of a membership check. When Unknown
// is NotUnknown the verdict is decided: Allowed reports membership, with a
// witness when allowed. When Unknown is set the check was cut short —
// deadline, work budget, or cancellation — and Allowed is meaningless;
// Progress records how much work was done before the stop. A decided
// verdict produced under a budget always equals the verdict the unbudgeted
// check would produce (budgets never flip an answer, they only withhold
// one).
type Verdict struct {
	Allowed bool
	Witness *Witness
	// Unknown is NotUnknown for a decided verdict, otherwise the reason
	// the check stopped short of deciding.
	Unknown UnknownReason
	// Progress counts candidates tested and search nodes expanded, for
	// decided and Unknown verdicts alike. Open-loop checks (a context with
	// nothing that could stop the check) skip the accounting and report
	// zeros.
	Progress Progress
}

// Decided reports whether the verdict answers the membership question.
func (v Verdict) Decided() bool { return v.Unknown == NotUnknown }

// Model decides membership of histories in a consistency model. Every
// model in this package is a Spec; check one through the package-level
// AllowsCtx.
type Model interface {
	Name() string
	// Allows reports whether the system execution history is one of the
	// histories permitted by this memory model, observing the context's
	// cancellation, deadline, route and any Budget attached with
	// WithBudget. It returns an Unknown verdict (never an error) when the
	// budget or deadline cuts the check short; an error means only that
	// the question itself is malformed for the checker (too many
	// operations, ambiguous reads-from where the model's orders require
	// resolution) — never "not allowed".
	Allows(ctx context.Context, s *history.System) (Verdict, error)
}

// checkSize guards the solver's operation-count limit with a model-specific
// error message.
func checkSize(name string, s *history.System) error {
	if n := s.NumOps(); n > search.MaxOps {
		return fmt.Errorf("model: %s: history has %d operations; checker limit is %d", name, n, search.MaxOps)
	}
	return nil
}

// rejected is the negative verdict.
var rejected = Verdict{}

// All returns every model in the repository, strongest first (the order of
// the paper's Figure 5, extensions last). The returned slice is fresh and
// may be modified.
func All() []Model {
	specs := allSpecs()
	out := make([]Model, len(specs))
	for i, sp := range specs {
		out[i] = *sp
	}
	return out
}

// allSpecs lists the models in All's order, by reference, so ByName can
// search them without boxing each one.
func allSpecs() [14]*Spec {
	return [...]*Spec{
		&SC, &TSO, &TSOAxiomatic, &PC, &Causal, &PRAM, &Coherence,
		&WO, &RCsc, &RCpc, &PCG, &CausalCoherent, &CausalLabeledCoherent, &Slow,
	}
}

// ByName returns the model with the given name (as reported by Name), or
// an error listing the valid names.
func ByName(name string) (Model, error) {
	var names []string
	for _, sp := range allSpecs() {
		if sp.Title == name {
			return *sp, nil
		}
		names = append(names, sp.Title)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("model: unknown model %q (have %v)", name, names)
}

// coherenceCandidates materializes, per location, every total order of the
// location's writes (only its labeled writes, with labeledOnly) that
// respects program order (same-processor writes to one location are never
// reordered by any model in the paper). The enumeration of coherence
// specs iterates over the cartesian product of these candidate lists.
// Materialization itself can be the explosive step on write-heavy
// histories, so each materialized extension is charged to the meter as a
// search node and a budget stop aborts the materialization with the
// meter's error.
func coherenceCandidates(s *history.System, po *order.Relation, labeledOnly bool, meter *budget.Meter) (locs []history.Loc, candidates [][][]history.OpID, err error) {
	for _, loc := range s.Locs() {
		writes := s.WritesTo(loc)
		if labeledOnly {
			var labeled []history.OpID
			for _, id := range writes {
				if s.Op(id).Labeled {
					labeled = append(labeled, id)
				}
			}
			writes = labeled
		}
		if len(writes) == 0 {
			continue
		}
		var exts [][]history.OpID
		if err := collectExtensions(writes, po, meter, &exts); err != nil {
			return nil, nil, err
		}
		locs = append(locs, loc)
		candidates = append(candidates, exts)
	}
	return locs, candidates, nil
}

// collectExtensions appends every linear extension of po over the given
// operations to *out, charging each to the meter. The extensions share
// one backing array.
func collectExtensions(ops []history.OpID, po *order.Relation, meter *budget.Meter, out *[][]history.OpID) error {
	before := func(a, b int) bool { return po.Has(ops[a], ops[b]) }
	var stopErr error
	var flat []history.OpID // the extensions back to back
	perm.LinearExtensions(len(ops), before, func(ord []int) bool {
		if err := meter.AddNodes(1); err != nil {
			stopErr = err
			return false
		}
		for _, k := range ord {
			flat = append(flat, ops[k])
		}
		return true
	})
	for n := len(ops); len(flat) >= n && n > 0; flat = flat[n:] {
		*out = append(*out, flat[:n:n])
	}
	return stopErr
}

// addChain adds the total-order edges of seq to rel.
func addChain(rel *order.Relation, seq []history.OpID) {
	for i := 0; i < len(seq); i++ {
		for j := i + 1; j < len(seq); j++ {
			rel.Add(seq[i], seq[j])
		}
	}
}

// requireUnambiguousReadsFrom fails fast for checkers whose orders need
// reads-from resolution (causal, PC, RC): every read must have a unique
// writer or read the initial value.
func requireUnambiguousReadsFrom(name string, s *history.System) error {
	if _, err := order.WritesBefore(s); err != nil {
		return fmt.Errorf("model: %s: %w", name, err)
	}
	return nil
}
