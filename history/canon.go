package history

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
)

// This file implements symmetry reduction on system execution histories.
// Every memory model in the paper treats processors, locations and values
// symmetrically: verdicts are invariant under renaming processors, renaming
// locations, and renaming values per location as long as the initial value
// 0 stays fixed (legality, reads-from and coherence only ever compare
// values at one location, and only for equality or against Initial).
// Canonicalize exploits that symmetry: it maps a System to a normal form
// that is identical for every history in the same isomorphism class, so a
// content-addressed verdict cache can collapse millions of relabeled client
// histories onto one NP-hard solve.

// Renaming records the bijections Canonicalize applied, in both directions,
// so a witness found on the canonical form can be mapped back to the
// caller's labels (model.RelabelWitness) and tests can round-trip.
type Renaming struct {
	// ProcTo[p] is the canonical processor for original processor p;
	// ProcFrom is its inverse.
	ProcTo, ProcFrom []Proc
	// LocTo maps original locations to canonical ones; LocFrom inverts it.
	LocTo, LocFrom map[Loc]Loc
	// ValTo[loc] maps original values at original location loc to canonical
	// values; ValFrom[cloc] maps canonical values at canonical location
	// cloc back. Initial (0) always maps to itself. Only values that appear
	// in the history are present.
	ValTo, ValFrom map[Loc]map[Value]Value
	// OpTo[id] is the canonical OpID for original operation id; OpFrom is
	// its inverse. Program order per processor is preserved, so the i-th
	// operation of p maps to the i-th operation of ProcTo[p].
	OpTo, OpFrom []OpID
}

// maxCanonOrders caps the number of candidate processor orders the
// tie-break enumeration may try. Processor signatures almost always
// separate processors; the cap only bites on highly symmetric histories
// (k processors with op-for-op identical shapes cost k! orders).
const maxCanonOrders = 40320 // 8!

// Canonicalize returns the normal form of s: an isomorphic System whose
// processors, locations and values carry canonical labels, plus the
// Renaming that maps between the two. Two histories have identical
// canonical forms (compare with Format) exactly when one is a relabeling
// of the other by a processor permutation, a location bijection, and
// per-location value bijections fixing Initial — and every memory model's
// verdict is invariant under exactly those relabelings.
//
// The normal form is computed label-independently: processors are ordered
// by a signature of their operation sequences that mentions no original
// label (locations and values are encoded by first-touch order), ties
// between signature-identical processors are broken by enumerating the
// tied orders and keeping the lexicographically least encoding, locations
// are renamed l0, l1, ... in first-touch order of the chosen processor
// order, and values are renumbered 1, 2, ... per location in first-touch
// order with Initial pinned to 0. The returned System is always isomorphic
// to s; the only failure mode is a symmetry class so large that the
// tie-break enumeration would exceed its cap, in which case an error is
// returned and the caller should fall back to the uncanonicalized history.
func Canonicalize(s *System) (*System, *Renaming, error) {
	n := s.NumProcs()
	c := newCanonizer(s)
	// Label-independent signature per processor, all in one buffer.
	sigs := make([]int, 2*n) // sigs[2p], sigs[2p+1]: p's span of c.buf
	for p := 0; p < n; p++ {
		sigs[2*p] = len(c.buf)
		c.appendSignature(Proc(p))
		sigs[2*p+1] = len(c.buf)
	}
	sig := func(p Proc) []byte { return c.buf[sigs[2*p]:sigs[2*p+1]] }
	// Sort processors by signature (a stable insertion sort: n is small);
	// equal signatures form tie classes.
	order := make([]Proc, n)
	for i := range order {
		order[i] = Proc(i)
		for j := i; j > 0 && bytes.Compare(sig(order[j]), sig(order[j-1])) < 0; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	var classes [][2]int // tie classes, as [lo, hi) windows of order
	total := 1
	for i := 0; i < n; {
		j := i + 1
		for j < n && bytes.Equal(sig(order[j]), sig(order[i])) {
			j++
		}
		if j-i > 1 {
			classes = append(classes, [2]int{i, j})
			for k := 2; k <= j-i; k++ {
				total *= k
				if total > maxCanonOrders {
					return nil, nil, fmt.Errorf("history: Canonicalize: %d processors share a signature; tie-break needs > %d candidate orders", j-i, maxCanonOrders)
				}
			}
		}
		i = j
	}

	// Enumerate the tied orders and keep the lexicographically least
	// encoding (the first one, among equals). The minimum over a
	// processor's full symmetry orbit is the same whatever labels the
	// input carried, which is what makes the normal form label-independent
	// even when signatures tie.
	c.buf = c.appendEncoding(c.buf[:0], order)
	if len(classes) > 0 {
		best := append([]byte(nil), c.buf...)
		bestOrder := append([]Proc(nil), order...)
		cand := append([]Proc(nil), order...)
		first := true
		permuteClasses(cand, order, classes, 0, func() {
			if first { // the unpermuted order, already encoded into best
				first = false
				return
			}
			c.buf = c.appendEncoding(c.buf[:0], cand)
			if bytes.Compare(c.buf, best) < 0 {
				best = append(best[:0], c.buf...)
				copy(bestOrder, cand)
			}
		})
		c.buf, order = best, bestOrder
	}
	canon, ren := c.build(order, string(c.buf))
	return canon, ren, nil
}

// canonizer holds Canonicalize's tables, all dense integer slices carved
// from one allocation and reset per pass: a signature, an encoding and the
// final build each number locations and values by first touch.
type canonizer struct {
	s *System
	// val[id] numbers operation id's (location, value) pair densely; -1
	// for Initial, which is never renumbered. pairOp[v] is an operation
	// carrying pair v, for the Renaming's value maps.
	val, pairOp []int
	// locTok[l] is location l's first-touch number in the current pass
	// (-1 = not yet touched) and nLocTok the next one; valTok[v] is value
	// v's number (0 = not yet touched) and valCount[l] the values
	// numbered at location l so far.
	locTok, valTok, valCount []int
	nLocTok                  int
	// byName lists first-touch location numbers in the string order of
	// their canonical names, and sortedIdx inverts it.
	byName, sortedIdx []int
	buf               []byte
}

func newCanonizer(s *System) *canonizer {
	nOps, nLocs := s.NumOps(), len(s.Locs())
	ints := make([]int, 3*nOps+4*nLocs)
	carve := func(n int) []int {
		w := ints[:n:n]
		ints = ints[n:]
		return w
	}
	c := &canonizer{s: s,
		val: carve(nOps), pairOp: carve(nOps), valTok: carve(nOps),
		locTok: carve(nLocs), valCount: carve(nLocs), byName: carve(nLocs), sortedIdx: carve(nLocs),
		buf: make([]byte, 0, 16*nOps+8*s.NumProcs()),
	}
	// Number the distinct (location, value) pairs: sort the operations
	// that carry one by pair, then give each run of equal pairs a number.
	// pairOp doubles as the sort's scratch: each run's first operation is
	// written at the run's number, never ahead of the read position.
	ops := c.pairOp[:0]
	for i, o := range s.ops {
		c.val[i] = -1
		if o.Value != Initial {
			ops = append(ops, i)
		}
	}
	slices.SortFunc(ops, func(i, j int) int {
		if d := cmp.Compare(s.locOf[i], s.locOf[j]); d != 0 {
			return d
		}
		return cmp.Compare(s.ops[i].Value, s.ops[j].Value)
	})
	next, prev := 0, -1
	for _, i := range ops {
		if prev >= 0 && s.locOf[i] == s.locOf[prev] && s.ops[i].Value == s.ops[prev].Value {
			c.val[i] = next - 1
		} else {
			c.val[i] = next
			c.pairOp[next] = i
			next++
		}
		prev = i
	}
	c.pairOp = c.pairOp[:next]
	return c
}

// reset starts a numbering pass.
func (c *canonizer) reset() {
	for i := range c.locTok {
		c.locTok[i] = -1
		c.valCount[i] = 0
	}
	for i := range c.valTok {
		c.valTok[i] = 0
	}
	c.nLocTok = 0
}

// number returns operation id's location and value numbers in the
// current pass, numbering them on first touch (value 0 for Initial).
func (c *canonizer) number(id OpID) (loc int, v int) {
	l := c.s.locOf[id]
	loc = c.locTok[l]
	if loc < 0 {
		loc = c.nLocTok
		c.nLocTok++
		c.locTok[l] = loc
	}
	if vi := c.val[id]; vi >= 0 {
		if v = c.valTok[vi]; v == 0 {
			c.valCount[l]++
			v = c.valCount[l]
			c.valTok[vi] = v
		}
	}
	return loc, v
}

// appendSignature appends processor p's signature: its operation
// sequence without any original label. Locations become first-touch
// indices within p's own sequence, values become 'z' for Initial or a
// per-location first-touch counter. Relabeling the history cannot change
// any processor's signature.
func (c *canonizer) appendSignature(p Proc) {
	c.reset()
	for _, id := range c.s.ProcOps(p) {
		loc, v := c.number(id)
		c.buf = append(c.buf, kindChar(c.s.ops[id]))
		c.buf = strconv.AppendInt(c.buf, int64(loc), 10)
		c.buf = append(c.buf, '.')
		if v == 0 {
			c.buf = append(c.buf, 'z')
		} else {
			c.buf = strconv.AppendInt(c.buf, int64(v), 10)
		}
		c.buf = append(c.buf, ' ')
	}
}

// appendEncoding appends the history with processors taken in the given
// order, locations renamed l0, l1, ... by first touch and values
// renumbered per location by first touch (Initial stays 0). The text
// equals String of the canonical System built from the same order.
func (c *canonizer) appendEncoding(b []byte, order []Proc) []byte {
	c.reset()
	for cp, p := range order {
		b = appendProcHeader(b, cp)
		for _, id := range c.s.ProcOps(p) {
			loc, v := c.number(id)
			b = appendOp(b, kindChar(c.s.ops[id]), canonLoc(loc), Value(v))
		}
		b = append(b, '\n')
	}
	return b
}

// kindChar is the r/w/R/W operation letter shared by String, signatures
// and encodings.
func kindChar(o Op) byte {
	switch {
	case o.Kind == Read && !o.Labeled:
		return 'r'
	case o.Kind == Read && o.Labeled:
		return 'R'
	case o.Kind == Write && !o.Labeled:
		return 'w'
	default:
		return 'W'
	}
}

// permuteClasses invokes f for every arrangement of cand that permutes
// processors within each tie class and keeps the class sequence fixed.
// Each class is a window of order, the sorted processor sequence cand
// starts as; the first arrangement is order itself.
func permuteClasses(cand, order []Proc, classes [][2]int, ci int, f func()) {
	if ci == len(classes) {
		f()
		return
	}
	lo, hi := classes[ci][0], classes[ci][1]
	window := cand[lo:hi]
	var rec func(k int)
	rec = func(k int) {
		if k == len(window) {
			permuteClasses(cand, order, classes, ci+1, f)
			return
		}
		for i := k; i < len(window); i++ {
			window[k], window[i] = window[i], window[k]
			rec(k + 1)
			window[k], window[i] = window[i], window[k]
		}
	}
	rec(0)
	// Restore the class's original window order.
	copy(window, order[lo:hi])
}

// canonLocNames holds the canonical names of the first locations, so the
// common build allocates none.
var canonLocNames = func() []Loc {
	names := make([]Loc, 64)
	for i := range names {
		names[i] = Loc("l" + strconv.Itoa(i))
	}
	return names
}()

func canonLoc(i int) Loc {
	if i < len(canonLocNames) {
		return canonLocNames[i]
	}
	return Loc("l" + strconv.Itoa(i))
}

// build constructs the canonical System for the chosen processor order,
// carrying its rendering text, and the full Renaming between s and it.
func (c *canonizer) build(order []Proc, text string) (*System, *Renaming) {
	s := c.s
	n, nOps, nLocs := s.NumProcs(), s.NumOps(), len(s.Locs())
	procs := make([]Proc, 2*n)
	opIDs := make([]OpID, 3*nOps)
	r := &Renaming{
		ProcTo:   procs[:n:n],
		ProcFrom: procs[n:],
		LocTo:    make(map[Loc]Loc, nLocs),
		LocFrom:  make(map[Loc]Loc, nLocs),
		ValTo:    make(map[Loc]map[Value]Value, nLocs),
		ValFrom:  make(map[Loc]map[Value]Value, nLocs),
		OpTo:     opIDs[:nOps:nOps],
		OpFrom:   opIDs[nOps : 2*nOps : 2*nOps],
	}
	cs := &System{
		ops:    make([]Op, nOps),
		byProc: make([][]OpID, n),
		locs:   make([]Loc, nLocs),
		text:   text,
	}
	ids32 := make([]int32, 2*nOps)
	cs.locOf, cs.writers = ids32[:nOps:nOps], ids32[nOps:]
	// Canonical names sort as strings, so l10 precedes l2.
	for t := range c.byName {
		c.byName[t] = t
	}
	slices.SortFunc(c.byName, func(a, b int) int { return cmp.Compare(canonLoc(a), canonLoc(b)) })
	for k, t := range c.byName {
		c.sortedIdx[t] = k
		cs.locs[k] = canonLoc(t)
	}
	ids := opIDs[2*nOps:]
	c.reset()
	next := OpID(0)
	for cp, p := range order {
		r.ProcTo[p] = Proc(cp)
		r.ProcFrom[cp] = p
		start := next
		for idx, id := range s.ProcOps(p) {
			o := s.ops[id]
			loc, v := c.number(id)
			cs.ops[next] = Op{ID: next, Proc: Proc(cp), Index: idx, Kind: o.Kind, Labeled: o.Labeled, Loc: canonLoc(loc), Value: Value(v)}
			cs.locOf[next] = int32(c.sortedIdx[loc])
			ids[next] = next
			r.OpTo[id] = next
			r.OpFrom[next] = id
			next++
		}
		cs.byProc[cp] = ids[start:next:next]
	}
	// Renaming maps each (location, value) pair one to one, so a read's
	// writer is its original's, renamed.
	for id, w := range s.writers {
		if w >= 0 {
			w = int32(r.OpTo[w])
		}
		cs.writers[r.OpTo[id]] = w
	}
	for l, orig := range s.locs {
		cloc := canonLoc(c.locTok[l])
		r.LocTo[orig], r.LocFrom[cloc] = cloc, orig
		vt := make(map[Value]Value, c.valCount[l]+1)
		vf := make(map[Value]Value, c.valCount[l]+1)
		vt[Initial], vf[Initial] = Initial, Initial
		r.ValTo[orig], r.ValFrom[cloc] = vt, vf
	}
	for vi, id := range c.pairOp {
		o, cv := s.ops[id], Value(c.valTok[vi])
		r.ValTo[o.Loc][o.Value] = cv
		r.ValFrom[r.LocTo[o.Loc]][cv] = o.Value
	}
	return cs, r
}

// RelabelRandom draws a random verdict-preserving relabeling of s from
// rng: a uniform processor permutation, fresh opaque location names, and
// per-location value bijections fixing Initial. Every memory model's
// verdict on the result equals its verdict on s — the symmetry the
// canonicalizer and its differential suites are built on.
func RelabelRandom(s *System, rng *rand.Rand) (*System, error) {
	procPerm := rng.Perm(s.NumProcs())
	locName := make(map[Loc]Loc, len(s.Locs()))
	valName := make(map[Loc]map[Value]Value, len(s.Locs()))
	for i, loc := range s.Locs() {
		locName[loc] = Loc(fmt.Sprintf("m%d_%d", i, rng.Intn(1<<16)))
		vm := map[Value]Value{Initial: Initial}
		used := map[Value]bool{Initial: true}
		for _, id := range s.OpsOn(loc) {
			v := s.Op(id).Value
			if _, ok := vm[v]; ok {
				continue
			}
			nv := Value(rng.Intn(1 << 20))
			for used[nv] {
				nv = Value(rng.Intn(1 << 20))
			}
			vm[v] = nv
			used[nv] = true
		}
		valName[loc] = vm
	}
	return Relabel(s,
		func(p Proc) Proc { return Proc(procPerm[p]) },
		func(l Loc) Loc { return locName[l] },
		func(l Loc, v Value) Value { return valName[l][v] })
}

// Relabel returns a copy of s with processors permuted by procOf,
// locations renamed by locOf and values renamed by valOf (called with the
// original location). It validates that procOf is a permutation of the
// processors, that locOf is injective on the history's locations, and that
// valOf is injective per location — the relabelings under which every
// model's verdict is preserved additionally require valOf(loc, Initial) ==
// Initial, which Relabel does not enforce (tests use it for mechanical
// round-trips too). Per-processor program order is preserved.
func Relabel(s *System, procOf func(Proc) Proc, locOf func(Loc) Loc, valOf func(Loc, Value) Value) (*System, error) {
	n := s.NumProcs()
	seenProc := make([]bool, n)
	for p := 0; p < n; p++ {
		np := procOf(Proc(p))
		if int(np) < 0 || int(np) >= n {
			return nil, fmt.Errorf("history: Relabel: processor %d maps out of range to %d", p, np)
		}
		if seenProc[np] {
			return nil, fmt.Errorf("history: Relabel: two processors map to %d", np)
		}
		seenProc[np] = true
	}
	seenLoc := make(map[Loc]Loc)
	for _, loc := range s.Locs() {
		nl := locOf(loc)
		if prev, dup := seenLoc[nl]; dup {
			return nil, fmt.Errorf("history: Relabel: locations %q and %q both map to %q", prev, loc, nl)
		}
		seenLoc[nl] = loc
		seen := make(map[Value]Value)
		for _, id := range s.OpsOn(loc) {
			v := s.Op(id).Value
			nv := valOf(loc, v)
			if prev, dup := seen[nv]; dup && prev != v {
				return nil, fmt.Errorf("history: Relabel: values %d and %d at %q both map to %d", prev, v, loc, nv)
			}
			seen[nv] = v
		}
	}
	b := NewBuilder(n)
	type slot struct {
		kind    Kind
		labeled bool
		loc     Loc
		value   Value
	}
	lines := make([][]slot, n)
	for p := 0; p < n; p++ {
		np := procOf(Proc(p))
		for _, id := range s.ProcOps(Proc(p)) {
			o := s.Op(id)
			lines[np] = append(lines[np], slot{o.Kind, o.Labeled, locOf(o.Loc), valOf(o.Loc, o.Value)})
		}
	}
	for np, ops := range lines {
		for _, o := range ops {
			b.add(Proc(np), o.kind, o.labeled, o.loc, o.value)
		}
	}
	return b.System(), nil
}
