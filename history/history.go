// Package history implements the execution-history model of Kohli, Neiger
// and Ahamad, "A Characterization of Scalable Shared Memories" (ICPP 1993).
//
// A System is a system execution history H = {H_p | p ∈ P}: one sequence of
// read and write operations per processor. Memory consistency models are
// characterized by the set of Systems they allow; a System is allowed when
// every processor can be assigned a legal sequential "view" of a specified
// subset of the operations, subject to ordering and mutual-consistency
// constraints. This package provides the operations, histories, views,
// legality checking and projections on which the rest of the repository is
// built; the constraints themselves live in packages order and model.
//
// All locations have initial value 0, following the paper.
package history

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Proc identifies a processor. Processors are numbered 0..NumProcs-1.
type Proc int

// Loc names a shared-memory location, e.g. "x" or "number[2]".
type Loc string

// Value is the value read or written by an operation. The initial value of
// every location is 0.
type Value int

// Initial is the value every location holds before any write, per the
// paper's footnote 1.
const Initial Value = 0

// Kind distinguishes read operations from write operations.
type Kind uint8

const (
	// Read is a read operation r_p(x)v: processor p reports that value v
	// is stored in location x.
	Read Kind = iota
	// Write is a write operation w_p(x)v: processor p stores value v in
	// location x.
	Write
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// OpID is the identity of an operation within a System. IDs are dense:
// 0..NumOps-1, assigned processor by processor in program order.
type OpID int

// NoOp is the sentinel OpID used where "no operation" must be represented,
// e.g. the writer of a read that observed the initial value.
const NoOp OpID = -1

// Op is a single read or write operation in a system execution history.
//
// Labeled marks synchronization operations in the sense of release
// consistency (the paper's "labeled" operations): a labeled read is an
// acquire, a labeled write is a release. For models without labels the flag
// is simply ignored.
type Op struct {
	ID      OpID
	Proc    Proc
	Index   int // position within the processor's history (program order)
	Kind    Kind
	Labeled bool
	Loc     Loc
	Value   Value
}

// IsAcquire reports whether o is a labeled read (an acquire in RC terms).
func (o Op) IsAcquire() bool { return o.Labeled && o.Kind == Read }

// IsRelease reports whether o is a labeled write (a release in RC terms).
func (o Op) IsRelease() bool { return o.Labeled && o.Kind == Write }

// String renders the operation in the paper's notation, e.g. "w1(x)3" for
// an ordinary write by processor 1 and "R0(y)2" for a labeled (acquire)
// read by processor 0.
func (o Op) String() string {
	var k byte
	switch {
	case o.Kind == Read && !o.Labeled:
		k = 'r'
	case o.Kind == Read && o.Labeled:
		k = 'R'
	case o.Kind == Write && !o.Labeled:
		k = 'w'
	default:
		k = 'W'
	}
	return fmt.Sprintf("%c%d(%s)%d", k, o.Proc, o.Loc, o.Value)
}

// System is a system execution history: the set {H_p} of per-processor
// operation sequences. Construct one with a Builder or Parse. A System is
// immutable once built.
type System struct {
	ops    []Op     // indexed by OpID
	byProc [][]OpID // byProc[p][i] = ID of the i-th operation of processor p
	locs   []Loc    // distinct locations, sorted
	locOf  []int32  // indexed by OpID: the operation's index in locs
	// writers is indexed by OpID: for a read, the writer WriterOf returns
	// (NoOp for the initial value), or unresolved if WriterOf reports an
	// error; it is set by resolveWriters.
	writers []int32
	// text, when set, is the System's String rendering, computed once by
	// the constructor that already had it (Canonicalize).
	text string
}

// NumOps returns the total number of operations in the history.
func (s *System) NumOps() int { return len(s.ops) }

// NumProcs returns the number of processors.
func (s *System) NumProcs() int { return len(s.byProc) }

// Op returns the operation with the given ID. It panics if id is out of
// range (including NoOp); callers hold only IDs minted by this System.
func (s *System) Op(id OpID) Op { return s.ops[int(id)] }

// ProcOps returns the IDs of processor p's operations in program order.
// The returned slice must not be modified.
func (s *System) ProcOps(p Proc) []OpID { return s.byProc[p] }

// Ops returns all operation IDs in the history, ordered by ID (processor 0
// first, each processor's operations in program order).
func (s *System) Ops() []OpID {
	ids := make([]OpID, len(s.ops))
	for i := range ids {
		ids[i] = OpID(i)
	}
	return ids
}

// Locs returns the distinct locations accessed in the history, sorted.
// The returned slice must not be modified.
func (s *System) Locs() []Loc { return s.locs }

// sortedLocs returns the distinct locations of ops, sorted. Histories touch
// few locations, so it collects them by scanning those it has found; past
// 16 it sorts every remaining operation's location instead, so that a
// history of many locations costs n log n, not n².
func sortedLocs(ops []Op) []Loc {
	locs := make([]Loc, 0, 8)
	for i, o := range ops {
		if slices.Contains(locs, o.Loc) {
			continue
		}
		if len(locs) == 16 {
			for _, o := range ops[i:] {
				locs = append(locs, o.Loc)
			}
			break
		}
		locs = append(locs, o.Loc)
	}
	slices.Sort(locs)
	return slices.Compact(locs)
}

// LocIndex returns the dense index of loc among Locs(), or -1 if the
// location does not appear in the history.
func (s *System) LocIndex(loc Loc) int {
	if i, ok := slices.BinarySearch(s.locs, loc); ok {
		return i
	}
	return -1
}

// LocOf returns the dense index, among Locs(), of operation id's location.
func (s *System) LocOf(id OpID) int { return int(s.locOf[id]) }

// Writes returns the IDs of all write operations, ordered by ID.
func (s *System) Writes() []OpID {
	var out []OpID
	for i, o := range s.ops {
		if o.Kind == Write {
			out = append(out, OpID(i))
		}
	}
	return out
}

// WritesTo returns the IDs of all writes to loc, ordered by ID.
func (s *System) WritesTo(loc Loc) []OpID {
	var out []OpID
	for i, o := range s.ops {
		if o.Kind == Write && o.Loc == loc {
			out = append(out, OpID(i))
		}
	}
	return out
}

// OpsOn returns the IDs of all operations (reads and writes) on loc,
// ordered by ID.
func (s *System) OpsOn(loc Loc) []OpID {
	var out []OpID
	for i, o := range s.ops {
		if o.Loc == loc {
			out = append(out, OpID(i))
		}
	}
	return out
}

// Labeled returns the IDs of all labeled (synchronization) operations,
// ordered by ID.
func (s *System) Labeled() []OpID {
	var out []OpID
	for i, o := range s.ops {
		if o.Labeled {
			out = append(out, OpID(i))
		}
	}
	return out
}

// ViewOps returns the operation set for processor p's view under the
// "writes of others" rule (δ_p = w): all of p's own operations plus every
// write operation of other processors. This is the operation set used by
// TSO, PC, PRAM, Causal and RC in the paper. IDs are returned in ID order.
func (s *System) ViewOps(p Proc) []OpID { return s.appendViewOps(nil, p) }

// ViewSets returns every processor's ViewOps set, indexed by processor and
// carved from one backing array. The sets must not be modified.
func (s *System) ViewSets() [][]OpID {
	writes := 0
	for _, o := range s.ops {
		if o.Kind == Write {
			writes++
		}
	}
	n := s.NumProcs()
	sets := make([][]OpID, n)
	flat := make([]OpID, 0, n*writes+len(s.ops)-writes)
	for p := range sets {
		start := len(flat)
		flat = s.appendViewOps(flat, Proc(p))
		sets[p] = flat[start:len(flat):len(flat)]
	}
	return sets
}

// appendViewOps appends processor p's view set, in ID order, to dst.
func (s *System) appendViewOps(dst []OpID, p Proc) []OpID {
	for i, o := range s.ops {
		if o.Proc == p || o.Kind == Write {
			dst = append(dst, OpID(i))
		}
	}
	return dst
}

// String renders the history in the multi-line figure style of the paper:
//
//	p0: w(x)1 r(y)0
//	p1: w(y)1 r(x)0
func (s *System) String() string {
	if s.text != "" {
		return s.text
	}
	var b []byte
	for p, ids := range s.byProc {
		b = appendProcHeader(b, p)
		for _, id := range ids {
			o := s.ops[id]
			b = appendOp(b, kindChar(o), o.Loc, o.Value)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// appendProcHeader appends processor p's "pN:" line prefix.
func appendProcHeader(b []byte, p int) []byte {
	b = append(b, 'p')
	b = strconv.AppendInt(b, int64(p), 10)
	return append(b, ':')
}

// appendOp appends one operation as String renders it: " k(loc)v".
func appendOp(b []byte, kind byte, loc Loc, v Value) []byte {
	b = append(b, ' ', kind, '(')
	b = append(b, loc...)
	b = append(b, ')')
	return strconv.AppendInt(b, int64(v), 10)
}

// WriterOf resolves which write operation the given read observed, under
// the distinct-write-values discipline used throughout the paper's
// examples: every write to a given location carries a distinct nonzero
// value. It returns:
//
//   - (id, true, nil) when exactly one write to the read's location wrote
//     the read's value;
//   - (NoOp, false, nil) when the read returned the initial value 0 and no
//     write to the location wrote 0 (the read observed the initial state);
//   - an error when the writer is ambiguous (several candidate writes, or
//     a read of 0 from a location that is also explicitly written 0).
//
// Relations that depend on reads-from resolution (writes-before, causal
// order, semi-causality) require unambiguous writers; use
// ValidateDistinctWrites to check a whole history up front.
//
// Every read's writer is resolved once, when the System is built, so a
// call costs two array reads.
func (s *System) WriterOf(read OpID) (OpID, bool, error) {
	r := s.Op(read)
	if r.Kind != Read {
		return NoOp, false, fmt.Errorf("history: WriterOf(%v): not a read", r)
	}
	switch w := s.writers[read]; {
	case w >= 0:
		return OpID(w), true, nil
	case w == int32(NoOp):
		return NoOp, false, nil
	}
	return s.writerError(r)
}

// unresolved marks, in System.writers, a read whose writer WriterOf
// reports an error for.
const unresolved = int32(NoOp) - 1

// resolveWriters sets s.writers from s.ops and s.locOf, using scratch,
// one int32 per operation: it sorts the operations by location and value,
// so that a read and the writes that could have written its value are
// adjacent, and gives each read its group's unique write, NoOp or
// unresolved, as WriterOf's cases decide.
func (s *System) resolveWriters(scratch []int32) {
	for i := range scratch {
		scratch[i] = int32(i)
	}
	slices.SortFunc(scratch, func(a, b int32) int {
		if c := cmp.Compare(s.locOf[a], s.locOf[b]); c != 0 {
			return c
		}
		return cmp.Compare(s.ops[a].Value, s.ops[b].Value)
	})
	for lo := 0; lo < len(scratch); {
		first := &s.ops[scratch[lo]]
		hi, cand, n := lo+1, int32(NoOp), 0
		for hi < len(scratch) && s.locOf[scratch[hi]] == s.locOf[first.ID] && s.ops[scratch[hi]].Value == first.Value {
			hi++
		}
		for _, id := range scratch[lo:hi] {
			if s.ops[id].Kind == Write {
				cand = id
				n++
			}
		}
		w := unresolved
		switch {
		case n == 0 && first.Value == Initial:
			w = int32(NoOp)
		case n == 1 && first.Value != Initial:
			w = cand
		}
		for _, id := range scratch[lo:hi] {
			s.writers[id] = w
		}
		lo = hi
	}
}

// writerError returns the error WriterOf reports for the read r, whose
// writer is unresolved.
func (s *System) writerError(r Op) (OpID, bool, error) {
	cand := NoOp
	n := 0
	for i, o := range s.ops {
		if o.Kind == Write && o.Loc == r.Loc && o.Value == r.Value {
			cand = OpID(i)
			n++
		}
	}
	switch {
	case n == 0:
		return NoOp, false, fmt.Errorf("history: %v reads value never written to %s", r, r.Loc)
	case n == 1 && r.Value == Initial:
		return NoOp, false, fmt.Errorf("history: %v ambiguous: initial value or %v", r, s.Op(cand))
	default:
		return NoOp, false, fmt.Errorf("history: %v has %d candidate writers", r, n)
	}
}

// ValidateDistinctWrites checks the discipline assumed by reads-from
// resolution: no two writes to the same location carry the same value, and
// no write stores the initial value 0. It returns nil when the history is
// well-formed in this sense.
func (s *System) ValidateDistinctWrites() error {
	seen := make(map[Loc]map[Value]OpID)
	for i, o := range s.ops {
		if o.Kind != Write {
			continue
		}
		if o.Value == Initial {
			return fmt.Errorf("history: %v writes the initial value 0", o)
		}
		m := seen[o.Loc]
		if m == nil {
			m = make(map[Value]OpID)
			seen[o.Loc] = m
		}
		if prev, dup := m[o.Value]; dup {
			return fmt.Errorf("history: %v duplicates value of %v", o, s.Op(prev))
		}
		m[o.Value] = OpID(i)
	}
	return nil
}

// Builder incrementally constructs a System. The zero value is not usable;
// call NewBuilder. Operations are appended per processor in program order.
type Builder struct {
	procs [][]Op
}

// NewBuilder returns a Builder for a history with nprocs processors
// (numbered 0..nprocs-1). nprocs may be 0; AddProc extends the history.
func NewBuilder(nprocs int) *Builder {
	return &Builder{procs: make([][]Op, nprocs)}
}

// AddProc appends a new empty processor history and returns its Proc.
func (b *Builder) AddProc() Proc {
	b.procs = append(b.procs, nil)
	return Proc(len(b.procs) - 1)
}

// Clone returns a deep copy of the Builder, which then evolves
// independently. The simulators' recorders do not use it: they share
// recorded prefixes between branches and build a Builder only when a
// history is requested.
func (b *Builder) Clone() *Builder {
	c := &Builder{procs: make([][]Op, len(b.procs))}
	for p, ops := range b.procs {
		c.procs[p] = append([]Op(nil), ops...)
	}
	return c
}

// NumRecorded returns the total number of operations added so far.
func (b *Builder) NumRecorded() int {
	n := 0
	for _, ops := range b.procs {
		n += len(ops)
	}
	return n
}

func (b *Builder) add(p Proc, k Kind, labeled bool, loc Loc, v Value) *Builder {
	if int(p) < 0 || int(p) >= len(b.procs) {
		panic(fmt.Sprintf("history: Builder: processor %d out of range [0,%d)", p, len(b.procs)))
	}
	b.procs[p] = append(b.procs[p], Op{
		Proc:    p,
		Index:   len(b.procs[p]),
		Kind:    k,
		Labeled: labeled,
		Loc:     loc,
		Value:   v,
	})
	return b
}

// Read appends an ordinary read r_p(loc)v. It returns b for chaining.
func (b *Builder) Read(p Proc, loc Loc, v Value) *Builder { return b.add(p, Read, false, loc, v) }

// Write appends an ordinary write w_p(loc)v. It returns b for chaining.
func (b *Builder) Write(p Proc, loc Loc, v Value) *Builder { return b.add(p, Write, false, loc, v) }

// Acquire appends a labeled read (acquire) R_p(loc)v. It returns b.
func (b *Builder) Acquire(p Proc, loc Loc, v Value) *Builder { return b.add(p, Read, true, loc, v) }

// Release appends a labeled write (release) W_p(loc)v. It returns b.
func (b *Builder) Release(p Proc, loc Loc, v Value) *Builder { return b.add(p, Write, true, loc, v) }

// System finalizes the Builder into an immutable System, assigning dense
// OpIDs (processor 0's operations first, then processor 1's, and so on).
// The Builder may continue to be used; later Systems include later
// operations.
func (b *Builder) System() *System {
	n := b.NumRecorded()
	s := &System{
		ops:    make([]Op, 0, n),
		byProc: make([][]OpID, len(b.procs)),
	}
	// locOf, writers and resolveWriters' scratch share one allocation.
	per := make([]int32, 3*n)
	s.locOf, s.writers = per[:n:n], per[n:2*n:2*n]
	ids := make([]OpID, n)
	for p, ops := range b.procs {
		start := len(s.ops)
		for _, o := range ops {
			o.ID = OpID(len(s.ops))
			ids[o.ID] = o.ID
			s.ops = append(s.ops, o)
		}
		s.byProc[p] = ids[start:len(s.ops):len(s.ops)]
	}
	s.locs = sortedLocs(s.ops)
	for i, o := range s.ops {
		k, _ := slices.BinarySearch(s.locs, o.Loc)
		s.locOf[i] = int32(k)
	}
	s.resolveWriters(per[2*n:])
	return s
}
