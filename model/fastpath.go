package model

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/history"
	"repro/internal/search"
	"repro/order"
)

// This file implements the polynomial fast paths and the enumeration
// pre-passes RouteAuto uses (Spec.procedure picks one per spec; TSO-ax's
// store-order pre-pass is in tsoaxiom.go). Each is CERTIFIED rather than
// trusted: it only ever decides through an artifact the slow path would
// also accept — a rejection comes from a cycle of forced edges
// (order.SaturateForced derives only edges every legal view must contain),
// and an acceptance comes from an explicitly constructed view that is
// re-verified legal before it is returned, or from a candidate the
// enumeration itself tests. When neither certificate materializes (the
// greedy construction gets stuck, or reads-from is ambiguous), the path
// falls back to the memoized solver or the full enumerator, so verdicts
// are identical to RouteEnumerate by construction; the differential-oracle
// CI matrix pins that equivalence empirically.

// errFastPathUnavailable reports that a fast path cannot apply to this
// history (ambiguous reads-from resolution); callers fall back to the
// enumeration procedure, which does not need the resolution.
var errFastPathUnavailable = errors.New("model: fast path unavailable")

// fastpath reports whether this run routes to the fast procedures.
func (r *run) fastpath() bool { return r.route == RouteAuto }

// chargeFastPath bills saturation/construction work to the run's meter so
// budgets and deadlines bound the fast paths exactly like the enumerator:
// the work may return Unknown, never a flipped verdict.
func (r *run) chargeFastPath(rounds, ops int) error {
	if r.meter == nil {
		return nil
	}
	return r.meter.AddNodes(int64((rounds + 1) * ops))
}

// fastFindView decides one view-existence problem — is there a legal
// arrangement of ops respecting base? — in polynomial time on the common
// path. It first tries the greedy construction directly on base (most
// allowed view problems complete here, and certification keeps it sound);
// only when that stalls does it saturate the forced edges (a cycle proves
// no view exists) and retry under the stronger relation. If the greedy
// construction stalls even then, the memoized solver finishes under the
// saturated precedence, attributed to the new "fastpath" prune part.
//
// ok=false with a nil error is a sound rejection. errFastPathUnavailable
// means reads-from is ambiguous and the caller must use its slow path.
//
// scope names the view problem for prune attribution; it is a closure so
// un-instrumented checks never pay for the formatting.
func (r *run) fastFindView(s *history.System, ops []history.OpID, base *order.Relation, baseName string, scope func() string) (history.View, bool, error) {
	if err := r.chargeFastPath(0, len(ops)); err != nil {
		return nil, false, err
	}
	if v, ok := greedyView(s, ops, base); ok {
		return v, true, nil
	}
	sat := r.cloneRel(base)
	defer r.releaseRel(sat)
	acyclic, rounds, err := order.SaturateForced(s, ops, sat)
	if err != nil {
		return nil, false, errFastPathUnavailable
	}
	if err := r.chargeFastPath(rounds, len(ops)); err != nil {
		return nil, false, err
	}
	if !acyclic {
		if r.instrumented() {
			r.probe.Constraint("fastpath", "forced-edge cycle: no legal view of "+scope())
		}
		return nil, false, nil
	}
	if v, ok := greedyView(s, ops, sat); ok {
		return v, true, nil
	}
	var parts []search.Part
	if r.instrumented() {
		parts = []search.Part{{Name: baseName, Rel: base}, {Name: "fastpath", Rel: sat}}
	}
	return search.FindView(r.problem(s, ops, sat, parts))
}

// forcedWriteEdges runs the saturation pre-pass the write-order and
// coherence specs (TSO; PC, PCG, WO, RCsc, RCpc, Causal+Coh) use to shrink
// their candidate spaces: saturate each processor's view problem under
// base and collect the forced write→write edges. For a write order every
// such edge constrains the agreed global order; for a coherence order
// only same-location pairs do, so those callers set sameLocOnly.
//
// Each view is saturated under base restricted to the view's operations,
// because that is all the enumeration's view search enforces: base is a
// union of orders (ppo ∪ bracket ∪ fence) that need not be closed, and a
// chain through another processor's read — an acquire's observed write,
// an ordinary read, the next release — does not bind this view.
//
// decided=true means some processor's forced edges are cyclic — the
// history is forbidden outright, no enumeration needed. A nil forced
// relation with decided=false means the pre-pass has nothing to offer —
// it could not apply (ambiguous reads-from) or derived no write→write
// edge beyond base — and enumeration proceeds unpruned. The returned
// error is only ever a budget stop.
func (r *run) forcedWriteEdges(s *history.System, base *order.Relation, sameLocOnly bool) (forced *order.Relation, decided bool, err error) {
	writes := s.Writes()
	forced = order.New(s.NumOps())
	scratch := order.New(s.NumOps())
	any := false
	for p := 0; p < s.NumProcs(); p++ {
		ops := r.views[p]
		// Every forced edge comes through a read (reads-from seeds, CoWR,
		// CoRW); a read-free view can neither derive one nor be cyclic.
		hasRead := false
		for _, id := range ops {
			if s.Op(id).Kind == history.Read {
				hasRead = true
				break
			}
		}
		if !hasRead {
			continue
		}
		scratch.CopyFrom(base)
		scratch.RestrictTo(ops)
		acyclic, rounds, serr := order.SaturateForced(s, ops, scratch)
		if serr != nil {
			return nil, false, nil // ambiguous reads-from: skip the pre-pass
		}
		if err := r.chargeFastPath(rounds, len(ops)); err != nil {
			return nil, false, err
		}
		if !acyclic {
			r.probe.Constraint("fastpath", fmt.Sprintf("forced-edge cycle: processor p%d has no legal view", p))
			return nil, true, nil
		}
		for _, a := range writes {
			for _, b := range writes {
				if a == b || !scratch.Has(a, b) || base.Has(a, b) {
					continue
				}
				if sameLocOnly && s.Op(a).Loc != s.Op(b).Loc {
					continue
				}
				forced.Add(a, b)
				any = true
			}
		}
	}
	if !any {
		return nil, false, nil
	}
	return forced, false, nil
}

// coherencePrepass is the RouteAuto pre-pass of every coherence spec the
// procedure rule selects (PC, PCG, WO, RCsc, RCpc, Causal+Coh): saturate
// each processor's view problem under base and fold the forced
// same-location write→write edges — which every view, and therefore the
// shared coherence order, must respect — into the relation the
// per-location candidate extensions are generated from. Per-candidate
// orders (semi-causality) and the labeled SC serialization only add
// constraints, so edges forced under base stay forced under them.
// decided=true means a forced cycle already forbids the history. When the
// pre-pass has nothing to offer (ambiguous reads-from, no forced edge) the
// returned relation is po itself and the enumeration is unpruned.
func (r *run) coherencePrepass(s *history.System, po, base *order.Relation) (candRel *order.Relation, decided bool, err error) {
	// With at most one write per location, every per-location order is a
	// singleton: there is nothing to prune and the enumeration below is
	// already trivial, so the saturation pass would be pure overhead.
	if !twoWritesToOneLoc(s) {
		return po, false, nil
	}
	forced, decided, err := r.forcedWriteEdges(s, base, true)
	if err != nil || decided {
		return po, decided, err
	}
	if forced == nil {
		return po, false, nil
	}
	candRel = po.Clone()
	candRel.Union(forced)
	return candRel, false, nil
}

// twoWritesToOneLoc reports whether some location is written twice.
func twoWritesToOneLoc(s *history.System) bool {
	for i := 0; i < s.NumOps(); i++ {
		a := history.OpID(i)
		if s.Op(a).Kind != history.Write {
			continue
		}
		for j := 0; j < i; j++ {
			if b := history.OpID(j); s.Op(b).Kind == history.Write && s.LocOf(a) == s.LocOf(b) {
				return true
			}
		}
	}
	return false
}

// greedyView attempts to build a legal arrangement of ops respecting rel
// without any search (rel need not be closed: a total order respecting
// every recorded edge respects the closure too): place every
// currently legal read eagerly — always safe, because delaying a read that
// can return its value now only risks the value being overwritten — and
// otherwise place the first enabled write that does not bury a value some
// still-blocked read is waiting for. The construction is deterministic and
// O(n²·rounds); when it completes, the view is certified legal before it
// is returned, so a true result is always sound. A false result only means
// "could not construct" — the caller falls back to search.
func greedyView(s *history.System, ops []history.OpID, rel *order.Relation) (history.View, bool) {
	n := len(ops)
	if n > 64 {
		return nil, false
	}
	// One backing array for the integer scratch: the construction runs once
	// per view problem on checker hot paths, so allocation count matters.
	nLocs := len(s.Locs())
	scratch := make([]int, 4*n+nLocs+s.NumOps())
	locOf, scratch := scratch[:n], scratch[n:]
	kind, scratch := scratch[:n], scratch[n:]
	writer, scratch := scratch[:n], scratch[n:] // reads: local index of observed writer, -1 = initial state
	seq, scratch := scratch[:0:n], scratch[n:]
	lastW, scratch := scratch[:nLocs], scratch[nLocs:] // per location: local index of last placed write, -1 = none
	local := scratch                                   // global OpID → local index, -1 = outside the view
	for i := range local {
		local[i] = -1
	}
	for i, id := range ops {
		local[int(id)] = i
	}
	for i := range lastW {
		lastW[i] = -1
	}
	preds := make([]uint64, n)
	for i, id := range ops {
		o := s.Op(id)
		kind[i] = int(o.Kind)
		locOf[i] = s.LocOf(id)
		if o.Kind == history.Read {
			w, found, err := s.WriterOf(id)
			if err != nil {
				return nil, false
			}
			writer[i] = -1
			if found {
				wi := local[int(w)]
				if wi < 0 {
					return nil, false // observed writer outside the view: leave to search
				}
				writer[i] = wi
			}
		}
		// i precedes each of its successors in the view.
		for w, word := range rel.Row(id) {
			for ; word != 0; word &= word - 1 {
				if j := local[w*64+bits.TrailingZeros64(word)]; j >= 0 && j != i {
					preds[j] |= 1 << uint(i)
				}
			}
		}
	}

	var placed uint64
	place := func(i int) {
		placed |= 1 << uint(i)
		seq = append(seq, i)
		if kind[i] == int(history.Write) {
			lastW[locOf[i]] = i
		}
	}
	for len(seq) < n {
		for again := true; again; {
			again = false
			for i := 0; i < n; i++ {
				if kind[i] != int(history.Read) || placed&(1<<uint(i)) != 0 || preds[i]&^placed != 0 {
					continue
				}
				if writer[i] != lastW[locOf[i]] {
					continue // value not observable right now
				}
				place(i)
				again = true
			}
		}
		if len(seq) == n {
			break
		}
		// Choose among the enabled safe writes, preferring one an unplaced
		// read is ready to observe (its writer, with every other predecessor
		// already placed) — placing an arbitrary safe write first can bury
		// the order a waiting read needs. Any choice stays sound (the view
		// is certified below); the preference only avoids dead ends.
		pick := -1
	writes:
		for i := 0; i < n; i++ {
			if kind[i] != int(history.Write) || placed&(1<<uint(i)) != 0 || preds[i]&^placed != 0 {
				continue
			}
			for j := 0; j < n; j++ {
				// A still-blocked read waiting on the location's current
				// state must not have its value buried.
				if kind[j] == int(history.Read) && placed&(1<<uint(j)) == 0 &&
					locOf[j] == locOf[i] && writer[j] == lastW[locOf[i]] {
					continue writes
				}
			}
			if pick < 0 {
				pick = i
			}
			for j := 0; j < n; j++ {
				if kind[j] == int(history.Read) && placed&(1<<uint(j)) == 0 &&
					writer[j] == i && preds[j]&^(placed|1<<uint(i)) == 0 {
					pick = i // this write unblocks a read right now
					break writes
				}
			}
		}
		if pick < 0 {
			return nil, false // stuck: every remaining write is unsafe or blocked
		}
		place(pick)
	}

	view := make(history.View, n)
	for i, li := range seq {
		view[i] = ops[li]
	}
	if view.Legal(s) != nil {
		return nil, false // certification failed: fall back to search
	}
	return view, true
}
