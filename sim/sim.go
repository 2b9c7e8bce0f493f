// Package sim provides operational simulators for the memory models the
// paper characterizes: a single-ported sequentially consistent memory, the
// TSO store-buffer machine of Section 3.2 (forwarding and non-forwarding
// variants), the replicated asynchronous memory of PRAM (Section 3.5), a
// vector-clock causal memory, Goodman-style coherent PRAM, a DASH-like
// release-consistent memory with either sequentially consistent or
// processor consistent synchronization operations (Section 3.4), and slow
// memory (per-location per-writer channels).
//
// A simulator plays the role the hardware plays in the paper: it generates
// system execution histories. All nondeterminism beyond the instruction
// interleaving — message deliveries, buffer drains — is exposed as
// enumerable internal actions so that schedulers (random) and explorers
// (exhaustive) can drive it deterministically.
//
// # Tagged recording
//
// Programs read and write semantic values (a Bakery ticket number, a flag),
// which may repeat or be zero; the paper's reads-from-sensitive orders
// (writes-before, causal, semi-causal) need every write to a location to be
// distinguishable. Recorded histories therefore use write tags: each write
// is recorded with a fresh nonzero value, and each read is recorded with
// the tag of the write whose value it observed (0 for the initial value).
// Tagging is a per-location value renaming, under which a recorded history
// is allowed by a model exactly when the actual execution is; it is what
// lets every simulator run be cross-validated against the package model
// checkers.
package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/history"
)

// Memory is an operational shared-memory simulator. Read and Write execute
// a processor's next operation synchronously (the operation "issues" and
// the local effect happens immediately); Internal lists the currently
// enabled internal transitions (deliveries, drains), and Step performs one.
// Clone and CloneInto must copy all state so that the copy and the
// original evolve independently; the recorder's recorded prefix may be
// shared (see Recorder), since recorded operations are never mutated.
// AppendFingerprint must canonically and exactly encode the live state
// (excluding the recorder); AppendKey is the same encoding with location
// ids in place of names, the compact form explorers keep for every visited
// state.
type Memory interface {
	// Name identifies the simulated memory model, matching the
	// corresponding checker's name in package model where one exists.
	Name() string
	// NumProcs returns the number of processors the memory serves.
	NumProcs() int
	// Read executes a read by processor p and returns the semantic
	// value. labeled marks a synchronization (acquire) read.
	Read(p history.Proc, loc history.Loc, labeled bool) history.Value
	// Write executes a write by processor p. labeled marks a
	// synchronization (release) write.
	Write(p history.Proc, loc history.Loc, v history.Value, labeled bool)
	// Internal describes the enabled internal actions. The slice is
	// fresh; indices are valid until the next state change.
	Internal() []string
	// NumInternal returns len(Internal()) without describing the
	// actions, for searches that only step them.
	NumInternal() int
	// Step performs the i-th enabled internal action.
	Step(i int)
	// Clone returns an independent copy in fresh storage; it is
	// CloneInto(nil).
	Clone() Memory
	// CloneInto copies the memory into dst's storage, overwriting dst's
	// state, and returns the copy. dst is nil, which allocates fresh
	// storage, or a memory of the same kind that nothing else uses any
	// more, whose slices are reused where they are large enough; a memory
	// of another kind is ignored. Explorers step successors in one reused
	// copy this way and keep only the states that are new.
	CloneInto(dst Memory) Memory
	// AppendFingerprint appends a canonical, exact binary encoding of
	// the live state (not the recorder) to dst and returns the extended
	// slice.
	AppendFingerprint(dst []byte) []byte
	// AppendKey appends the state's key: the fingerprint with every
	// location written as its id in the memory's location table rather
	// than its name. Two memories sharing a table (clones of one
	// memory) have equal keys exactly when they have equal
	// fingerprints; keys of memories built apart, or of one memory's
	// clones in two runs that numbered locations in a different order,
	// are not comparable.
	AppendKey(dst []byte) []byte
	// Recorder returns the tagged-history recorder.
	Recorder() *Recorder
}

// cell is a replicated memory cell: a semantic value plus the tag of the
// write that produced it (0 = initial) and, where coherence matters, the
// global per-location version of that write.
type cell struct {
	val     history.Value
	tag     history.Value
	version int
}

// update is an in-flight write propagating between replicas; loc is the
// location's id in the memory's locTable.
type update struct {
	loc     int
	cell    cell
	labeled bool
}

// Recorder accumulates the tagged system execution history of a run. Tags
// are drawn from disjoint per-processor ranges (processor p's k-th write is
// tagged p*tagStride + k), so a write's tag depends only on the issuing
// processor's own progress, never on the global interleaving — states that
// differ only in interleaving history fingerprint identically, which keeps
// exhaustive exploration from fragmenting.
//
// The recorded operations form a persistent list, newest first: recording
// an operation prepends a node and never mutates an existing one, so a
// Recorder and its clones share the prefix they had in common when the
// clone was taken. Cloning is therefore O(1) — copying the Recorder value
// is a clone — and System builds the history on demand.
type Recorder struct {
	nprocs int
	last   *recOp // most recent operation; nil when empty
	n      int
	// nextSeq[p] is the number of writes p has recorded. It is shared
	// between clones and replaced, never mutated, on a write.
	nextSeq []history.Value
}

// recOp is one recorded operation in a Recorder's persistent list.
type recOp struct {
	prev    *recOp
	proc    history.Proc
	write   bool
	labeled bool
	loc     history.Loc
	val     history.Value
}

// tagStride separates per-processor tag ranges; a single processor may
// issue at most tagStride-1 writes in one run.
const tagStride = 1 << 20

// NewRecorder returns a Recorder for nprocs processors.
func NewRecorder(nprocs int) *Recorder {
	r := newRecorder(nprocs)
	return &r
}

func newRecorder(nprocs int) Recorder {
	return Recorder{nprocs: nprocs, nextSeq: make([]history.Value, nprocs)}
}

func (r *Recorder) record(p history.Proc, write, labeled bool, loc history.Loc, v history.Value) {
	if int(p) < 0 || int(p) >= r.nprocs {
		panic(fmt.Sprintf("sim: Recorder: processor %d out of range [0,%d)", p, r.nprocs))
	}
	r.last = &recOp{prev: r.last, proc: p, write: write, labeled: labeled, loc: loc, val: v}
	r.n++
}

// Write records a write and returns its fresh tag.
func (r *Recorder) Write(p history.Proc, loc history.Loc, labeled bool) history.Value {
	seq := slices.Clone(r.nextSeq)
	seq[p]++
	r.nextSeq = seq
	tag := history.Value(int(p)*tagStride) + seq[p]
	r.record(p, true, labeled, loc, tag)
	return tag
}

// Read records a read that observed the write with the given tag (0 for
// the initial value).
func (r *Recorder) Read(p history.Proc, loc history.Loc, tag history.Value, labeled bool) {
	r.record(p, false, labeled, loc, tag)
}

// System returns the recorded history so far.
func (r *Recorder) System() *history.System {
	ops := make([]*recOp, r.n)
	for o, i := r.last, r.n-1; o != nil; o, i = o.prev, i-1 {
		ops[i] = o
	}
	b := history.NewBuilder(r.nprocs)
	for _, o := range ops {
		switch {
		case o.write && o.labeled:
			b.Release(o.proc, o.loc, o.val)
		case o.write:
			b.Write(o.proc, o.loc, o.val)
		case o.labeled:
			b.Acquire(o.proc, o.loc, o.val)
		default:
			b.Read(o.proc, o.loc, o.val)
		}
	}
	return b.System()
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int { return r.n }

// Clone returns an independent recorder that shares r's recorded prefix.
// Later operations recorded on either one are invisible to the other.
func (r *Recorder) Clone() *Recorder {
	c := *r
	return &c
}

// fingerprinter builds a canonical binary state encoding for visited-state
// detection. The encoding is exact — no hashing — so two states share a
// fingerprint only if they are equal up to the canonicalization below.
// Integers are varints, location names are length-prefixed, and every
// variable-length section (a replica, a queue, a clock) starts with its
// length, so the encoding of a state is unambiguous. Replicas list their
// written cells in location-name order, so the encoding does not depend
// on the order in which a memory numbered its locations.
//
// Raw tags and versions grow monotonically with every write — a program
// that writes in a retry loop would make semantically identical states
// fingerprint differently and blow up exhaustive exploration — so they are
// canonicalized per state:
//
//   - tags are renamed by first appearance (only tag EQUALITY matters:
//     tags decide which write a read records, never future behaviour);
//   - versions are replaced by their per-location rank (only the ORDER of
//     versions within one location matters: a replica applies an update
//     iff its version exceeds the held one, and any future write receives
//     a version above all existing ones).
//
// Two states with equal canonical fingerprints are bisimilar for invariant
// reachability. Fingerprinters are pooled; finish returns one to the pool.
//
// A key is built by the same encoder: byID writes each location as its id
// in the memory's table instead of its name. Within one table ids and
// names correspond one to one, and both are written prefix-free, so keys
// compare exactly as fingerprints do.
type fingerprinter struct {
	locs  *locSnap        // names and name order of the memory's locations
	byID  bool            // write locations as ids: build a key
	raw   []byte          // literal bytes, with the cells spliced in by finish
	cells []fpCell        // canonicalizable cells, in encoding order
	vers  [][]int         // distinct versions seen, by location id
	tags  []history.Value // raw tags by canonical id
}

// fpCell is a cell to canonicalize; at is the length of raw when it was
// appended, i.e. where it belongs in the encoding.
type fpCell struct {
	at int
	id int
	c  cell
}

var fingerprinters = sync.Pool{New: func() any { return new(fingerprinter) }}

func newFingerprinter(t *locTable, byID bool) *fingerprinter {
	f := fingerprinters.Get().(*fingerprinter)
	f.locs, f.byID = t.load(), byID
	f.raw, f.cells, f.tags = f.raw[:0], f.cells[:0], f.tags[:0]
	if n := len(f.locs.names); len(f.vers) < n {
		f.vers = append(f.vers, make([][]int, n-len(f.vers))...)
	}
	for i := range f.vers {
		f.vers[i] = f.vers[i][:0]
	}
	return f
}

// int appends a signed integer.
func (f *fingerprinter) int(x int) { f.raw = binary.AppendVarint(f.raw, int64(x)) }

// bool appends a flag.
func (f *fingerprinter) bool(b bool) {
	if b {
		f.raw = append(f.raw, 1)
	} else {
		f.raw = append(f.raw, 0)
	}
}

// loc appends location id: its length-prefixed name, or in a key the id.
func (f *fingerprinter) loc(id int) {
	if f.byID {
		f.raw = binary.AppendUvarint(f.raw, uint64(id))
		return
	}
	l := f.locs.names[id]
	f.int(len(l))
	f.raw = append(f.raw, l...)
}

// ints appends a length-prefixed integer vector.
func (f *fingerprinter) ints(xs []int) {
	f.int(len(xs))
	for _, x := range xs {
		f.int(x)
	}
}

// cell appends a canonicalizable cell of location id.
func (f *fingerprinter) cell(id int, c cell) {
	f.cells = append(f.cells, fpCell{at: len(f.raw), id: id, c: c})
	if !slices.Contains(f.vers[id], c.version) {
		f.vers[id] = append(f.vers[id], c.version)
	}
}

// replica appends a replica's written cells, named, in location-name
// order. The replica is indexed by location id.
func (f *fingerprinter) replica(cells []cell) {
	n := 0
	for _, c := range cells {
		if c.tag != 0 {
			n++
		}
	}
	f.int(n)
	for _, id := range f.locs.byName {
		if id < len(cells) && cells[id].tag != 0 {
			f.loc(id)
			f.cell(id, cells[id])
		}
	}
}

// queue appends an update queue in order.
func (f *fingerprinter) queue(q []update) {
	f.int(len(q))
	for _, u := range q {
		f.loc(u.loc)
		f.bool(u.labeled)
		f.cell(u.loc, u.cell)
	}
}

// finish appends the canonical fingerprint to dst and returns f to the
// pool.
func (f *fingerprinter) finish(dst []byte) []byte {
	prev := 0
	for _, t := range f.cells {
		dst = append(dst, f.raw[prev:t.at]...)
		prev = t.at
		id := slices.Index(f.tags, t.c.tag)
		if id < 0 {
			id = len(f.tags)
			f.tags = append(f.tags, t.c.tag)
		}
		// The rank is the number of distinct smaller versions held for
		// the same location.
		rank := 0
		for _, v := range f.vers[t.id] {
			if v < t.c.version {
				rank++
			}
		}
		dst = binary.AppendVarint(dst, int64(t.c.val))
		dst = binary.AppendUvarint(dst, uint64(id))
		dst = binary.AppendUvarint(dst, uint64(rank))
	}
	dst = append(dst, f.raw[prev:]...)
	f.locs = nil
	fingerprinters.Put(f)
	return dst
}
