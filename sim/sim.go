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
	"fmt"
	"strconv"

	"repro/history"
)

// Memory is an operational shared-memory simulator. Read and Write execute
// a processor's next operation synchronously (the operation "issues" and
// the local effect happens immediately); Internal lists the currently
// enabled internal transitions (deliveries, drains), and Step performs one.
// Clone and CloneInto must copy all state, the recorder included, so that
// the copy and the original evolve independently.
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
	// DescribeInternal returns Internal()[i] without describing the
	// other enabled actions.
	DescribeInternal(i int) string
	// Step performs the i-th enabled internal action.
	Step(i int)
	// Clone returns an independent copy in fresh storage; it is
	// CloneInto(nil).
	Clone() Memory
	// CloneInto copies the memory into dst's storage, overwriting dst's
	// state, and returns the copy. dst is nil, which allocates fresh
	// storage, or a memory of the same kind that nothing else uses any
	// more, whose slices are reused where they are large enough; a memory
	// of another kind is ignored. Into a dst that is already a copy of
	// the same memory, a copy writes values only, not slice headers that
	// already fit. Explorers step successors in one reused copy this way
	// and keep only the states that are new.
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
type Recorder struct {
	nprocs  int
	ops     []recOp
	discard bool // record no operations (see Discard)
	// nextSeq[p] is the number of writes p has recorded. Each recorder
	// owns its counters: a write increments them in place, and every
	// copy (copyFrom) copies them.
	nextSeq []history.Value
}

// recOp is one recorded operation.
type recOp struct {
	proc    history.Proc
	write   bool
	labeled bool
	loc     history.Loc
	val     history.Value
}

// tagStride separates per-processor tag ranges; a single processor may
// issue at most tagStride-1 writes in one run.
const tagStride = 1 << 20

func newRecorder(nprocs int) Recorder {
	return Recorder{nprocs: nprocs, nextSeq: make([]history.Value, nprocs)}
}

func (r *Recorder) record(p history.Proc, write, labeled bool, loc history.Loc, v history.Value) {
	if int(p) < 0 || int(p) >= r.nprocs {
		panic(fmt.Sprintf("sim: Recorder: processor %d out of range [0,%d)", p, r.nprocs))
	}
	if !r.discard {
		r.ops = append(r.ops, recOp{proc: p, write: write, labeled: labeled, loc: loc, val: v})
	}
}

// Write records a write and returns its fresh tag.
func (r *Recorder) Write(p history.Proc, loc history.Loc, labeled bool) history.Value {
	r.nextSeq[p]++
	tag := history.Value(int(p)*tagStride) + r.nextSeq[p]
	r.record(p, true, labeled, loc, tag)
	return tag
}

// Read records a read that observed the write with the given tag (0 for
// the initial value).
func (r *Recorder) Read(p history.Proc, loc history.Loc, tag history.Value, labeled bool) {
	r.record(p, false, labeled, loc, tag)
}

// Discard drops the recorded operations and records none from now on.
// Writes are still tagged as before, so the memory's states, fingerprints
// and keys are unchanged; only System and Len see nothing. Copies of the
// memory (Clone, CloneInto) inherit it. Explorers discard the history of
// the machines they search, whose histories depend only on the schedule,
// and rebuild a history by replaying its schedule when they need one.
func (r *Recorder) Discard() {
	r.ops, r.discard = nil, true
}

// System returns the recorded history so far.
func (r *Recorder) System() *history.System {
	b := history.NewBuilder(r.nprocs)
	for _, o := range r.ops {
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

// describeInternal lists m's enabled internal actions, as Internal does.
func describeInternal(m Memory) []string {
	var out []string
	for i := range m.NumInternal() {
		out = append(out, m.DescribeInternal(i))
	}
	return out
}

// deliverName renders the delivery of an update to location loc from
// processor s to processor r, as the replicated memories describe it.
func deliverName(s, r int, loc history.Loc) string {
	return "deliver p" + strconv.Itoa(s) + "→p" + strconv.Itoa(r) + " " + string(loc)
}

// nthNonempty returns the index of the (i+1)-th nonempty queue of qs.
func nthNonempty[T any](qs [][]T, i int) int {
	for k, q := range qs {
		if len(q) == 0 {
			continue
		}
		if i == 0 {
			return k
		}
		i--
	}
	panic("sim: internal action index out of range")
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int { return len(r.ops) }

// copyFrom makes r a copy of src in r's own storage, which nothing else may
// use any more. A memory's CloneInto copies its recorder into its
// destination's this way; a Recorder is never copied as a plain value,
// which would share its storage.
func (r *Recorder) copyFrom(src *Recorder) {
	r.nprocs, r.discard = src.nprocs, src.discard
	copyInto(&r.ops, src.ops)
	copyInto(&r.nextSeq, src.nextSeq)
}
