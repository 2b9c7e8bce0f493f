package explore

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/history"
	"repro/program"
	"repro/sim"
)

// This file holds the search's collapsed state space and its successor
// path.
//
// The search does not keep a machine, nor a machine's whole key, per
// state. A state is a tuple of component ids: one thread-state id per
// thread, in thread order, then a memory id. Each component is interned
// once, in a keySet of its exact key (program.Machine.AppendThreadKey for
// a thread, sim.Memory.AppendKey for the memory), so two states are equal
// exactly when their tuples are. A thread state is represented by its key
// bytes alone, which SetThreadKey loads back into a machine; a memory
// state by a clone of a memory in that state, which is never stepped.
//
// A thread step changes only its thread and the memory, and an internal
// action only the memory, so successors are read from dense tables
// indexed by component ids, filled as the search takes each step for the
// first time. None of them is a Go map:
//
//   - by memory id and internal action: the memory the action leads to.
//   - by thread and thread-state id: the id of the visible operation the
//     thread's step performs (program.Machine.PeekOp), numbered once.
//   - by thread and operation id, a row indexed by memory id: the
//     memory's answer, as the memory it leaves and the id of the value
//     it returns. A load is not a pure read on every memory (the
//     non-forwarding TSO memory drains a buffer on it), so loads have
//     rows too; only critical-section markers skip the memory.
//   - by thread and thread-state id, a row indexed by value id: the
//     thread state the thread's step finishes in, given the answer
//     (program.Machine.FinishOp).
//
// A thread step is so three array reads: its operation, the memory's
// answer and the thread's finish. Only an unknown entry is stepped, in a
// scratch machine loaded from the representatives (Op.Perform on a memory
// for an answer, FinishOp on a thread for a finish), and its results keyed
// and interned. A thread not at a visible operation (in practice, one in
// its initial state) takes its whole step in the scratch machine, every
// time.

// Special operation ids: a thread state's operation is one of these or
// an index into space.opTab.
const (
	// opHalted marks a halted thread, which takes no step.
	opHalted = ^uint32(0) - iota
	// opLocal marks a thread that runs local instructions before its
	// visible operation, and so takes its whole step in a machine.
	opLocal
)

const (
	// pageBits sets the size of a table's pages, 1<<pageBits entries, and
	// of the visited set's, 1<<pageBits tuples.
	pageBits = 10
	pageMask = 1<<pageBits - 1
	// blockLen is the length of the blocks finish rows are cut from.
	blockLen = 1024
)

// table is an array indexed by id, held in pages of 1<<pageBits entries,
// each allocated when an entry in it is first set: it grows without
// copying, and a sparse table holds only the pages it uses. An entry never
// set reads 0. Its pages hold no pointers.
type table[E uint32 | uint64] [][]E

// at returns entry i.
func (t table[E]) at(i uint32) E {
	if p := int(i >> pageBits); p < len(t) && t[p] != nil {
		return t[p][i&pageMask]
	}
	return 0
}

// set sets entry i to v.
func (t *table[E]) set(i uint32, v E) {
	p := int(i >> pageBits)
	for p >= len(*t) {
		*t = append(*t, nil)
	}
	if (*t)[p] == nil {
		(*t)[p] = make([]E, 1<<pageBits)
	}
	(*t)[p][i&pageMask] = v
}

// space is a search's collapsed state space: the component tables, the
// successor tables, and the visited set of component tuples, with the
// scratch machine and buffer unknown entries are stepped and keyed in.
type space struct {
	threads []*keySet  // by thread: thread-state keys
	ops     [][]uint32 // by thread and thread-state id: its operation's id
	mems    *keySet    // memory keys
	// memReps holds, by memory id, a memory in that state.
	memReps []sim.Memory
	// internal holds one slot per enabled internal action of each
	// memory: 1 + the id of the memory the action leads to, or 0 while
	// it is unknown. Memory m's slots are
	// internal[memFirst[m]:memFirst[m+1]].
	internal []uint32
	memFirst []uint32
	// answers[i][op].at(mem) is the memory's answer to thread i's
	// operation op on memory mem: pack(1 + the id of the memory it
	// leaves, the id of the value it returns), or 0 while it is unknown.
	answers [][]table[uint64]
	// finishes[i][tid][val] is 1 + the id of the state thread i's step
	// from its state tid finishes in, given the value numbered val, or 0
	// while it is unknown.
	finishes [][][]uint32
	block    []uint32 // what is left of the block finish rows are cut from
	// opTab and vals number the operations and the values, which opIDs
	// and valIDs index; those maps are read only when a step is stepped.
	opTab  []program.Op
	opIDs  map[program.Op]uint32
	vals   []history.Value
	valIDs map[history.Value]uint32
	seen   stateSet
	m      *program.Machine // the scratch machine unknown entries are stepped in
	buf    []byte
	// hits counts the transitions read from the tables alone, and
	// stepped those for which some machine was stepped.
	hits, stepped int
}

// newSpace interns root's components and adds root's state to the visited
// set, as state 0.
func newSpace(root *program.Machine) *space {
	n := root.NumThreads()
	sp := &space{
		threads:  make([]*keySet, n),
		ops:      make([][]uint32, n),
		mems:     newKeySet(),
		memFirst: []uint32{0},
		answers:  make([][]table[uint64], n),
		finishes: make([][][]uint32, n),
		opIDs:    map[program.Op]uint32{},
		vals:     []history.Value{0}, // value id 0, the answer to all but loads
		valIDs:   map[history.Value]uint32{0: 0},
		seen:     stateSet{width: n + 1, slots: make([]uint64, minSlots)},
		m:        root.Clone(),
	}
	t := make([]uint32, n+1)
	for i := range n {
		sp.threads[i] = newKeySet()
		t[i] = sp.internThread(root, i)
	}
	t[n] = sp.internMem(root.Mem())
	sp.seen.add(t)
	return sp
}

// internThread returns the id of thread i's state in m, interning it, and
// its operation, if it is new.
func (sp *space) internThread(m *program.Machine, i int) uint32 {
	sp.buf = m.AppendThreadKey(sp.buf[:0], i)
	ks := sp.threads[i]
	id, added := ks.intern(ks.hash(sp.buf), sp.buf)
	if added {
		sp.ops[i] = append(sp.ops[i], sp.opOf(m, i))
		sp.finishes[i] = append(sp.finishes[i], nil)
	}
	return id
}

// opOf returns the id of the operation thread i's next step in m performs.
func (sp *space) opOf(m *program.Machine, i int) uint32 {
	if m.ThreadHalted(i) {
		return opHalted
	}
	op, ok := m.PeekOp(i)
	if !ok {
		return opLocal
	}
	id, ok := sp.opIDs[op]
	if !ok {
		id = uint32(len(sp.opTab))
		sp.opTab = append(sp.opTab, op)
		sp.opIDs[op] = id
		for t := range sp.answers {
			sp.answers[t] = append(sp.answers[t], nil)
		}
	}
	return id
}

// internMem returns the id of mem's state, interning it, with a copy of
// mem as its representative, if it is new.
func (sp *space) internMem(mem sim.Memory) uint32 {
	sp.buf = mem.AppendKey(sp.buf[:0])
	id, added := sp.mems.intern(sp.mems.hash(sp.buf), sp.buf)
	if added {
		sp.memReps = append(sp.memReps, mem.Clone())
		// Grown in place rather than by appending a make'd slice, which
		// -race builds allocate.
		n, l := mem.NumInternal(), len(sp.internal)
		sp.internal = slices.Grow(sp.internal, n)[:l+n]
		clear(sp.internal[l:])
		sp.memFirst = append(sp.memFirst, uint32(l+n))
	}
	return id
}

// valID returns v's id, numbering it if it is new.
func (sp *space) valID(v history.Value) uint32 {
	id, ok := sp.valIDs[v]
	if !ok {
		id = uint32(len(sp.vals))
		sp.vals = append(sp.vals, v)
		sp.valIDs[v] = id
	}
	return id
}

// halted reports whether thread i has halted in its state tid.
func (sp *space) halted(i int, tid uint32) bool { return sp.ops[i][tid] == opHalted }

// terminal reports whether the state t is terminal: every thread halted
// and no internal action enabled.
func (sp *space) terminal(t []uint32) bool {
	mem := t[len(t)-1]
	if sp.memFirst[mem+1] != sp.memFirst[mem] {
		return false
	}
	for i, id := range t[:len(t)-1] {
		if !sp.halted(i, id) {
			return false
		}
	}
	return true
}

// numInternal returns the number of internal actions memory mem enables.
func (sp *space) numInternal(mem uint32) int { return int(sp.memFirst[mem+1] - sp.memFirst[mem]) }

// internalStep returns the id of the memory internal action a of memory
// mem leads to.
func (sp *space) internalStep(mem uint32, a int) uint32 {
	slot := sp.memFirst[mem] + uint32(a)
	if v := sp.internal[slot]; v != 0 {
		sp.hits++
		return v - 1
	}
	sp.stepped++
	mm := sp.memReps[mem].CloneInto(sp.m.Mem())
	mm.Step(a)
	id := sp.internMem(mm)
	sp.internal[slot] = id + 1
	return id
}

// threadStep returns the ids of the thread state and the memory thread
// i's step from its state tid on memory mem leads to.
func (sp *space) threadStep(i int, tid, mem uint32) (next, nmem uint32, err error) {
	op := sp.ops[i][tid]
	if op == opLocal {
		sp.stepped++
		sp.memReps[mem].CloneInto(sp.m.Mem())
		sp.m.SetThreadKey(i, sp.threads[i].key(tid))
		if err := sp.m.StepThread(i); err != nil {
			return 0, 0, fmt.Errorf("explore: step thread %d: %w", i, err)
		}
		return sp.internThread(sp.m, i), sp.internMem(sp.m.Mem()), nil
	}
	stepped := false
	nmem, val := mem, uint32(0)
	if o := &sp.opTab[op]; o.Kind == program.OpLoad || o.Kind == program.OpStore {
		a := sp.answers[i][op].at(mem)
		if a == 0 {
			stepped = true
			mm := sp.memReps[mem].CloneInto(sp.m.Mem())
			v := o.Perform(mm, history.Proc(i))
			a = pack(sp.internMem(mm)+1, sp.valID(v))
			sp.answers[i][op].set(mem, a)
		}
		nmem, val = unpack(a)
		nmem--
	}
	row := sp.finishes[i][tid]
	if int(val) < len(row) && row[val] != 0 {
		next = row[val] - 1
	} else {
		stepped = true
		sp.m.SetThreadKey(i, sp.threads[i].key(tid))
		if err := sp.m.FinishOp(i, sp.vals[val]); err != nil {
			return 0, 0, fmt.Errorf("explore: step thread %d: %w", i, err)
		}
		next = sp.internThread(sp.m, i)
		if int(val) >= len(row) {
			row = sp.finishRow(row)
			sp.finishes[i][tid] = row
		}
		row[val] = next + 1
	}
	if stepped {
		sp.stepped++
	} else {
		sp.hits++
	}
	return next, nmem, nil
}

// finishRow returns a copy of the finish row old with an entry for every
// value numbered so far. Rows are cut from a shared block, so a thread
// state's row costs no allocation of its own.
func (sp *space) finishRow(old []uint32) []uint32 {
	n := len(sp.vals)
	if len(sp.block) < n {
		sp.block = make([]uint32, max(n, blockLen))
	}
	row := sp.block[:n:n]
	sp.block = sp.block[n:]
	copy(row, old)
	return row
}

// bytes returns the bytes the visited set and the component tables hold
// (see Result.KeyBytes).
func (sp *space) bytes() int {
	n := sp.seen.bytes() + sp.mems.bytes()
	for _, t := range sp.threads {
		n += t.bytes()
	}
	return n
}

// pack packs two ids into one table entry.
func pack(hi, lo uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

// unpack undoes pack.
func unpack(v uint64) (hi, lo uint32) { return uint32(v >> 32), uint32(v) }

// mix64 is a 64-bit finalizer (MurmurHash3's fmix64): every input bit
// affects every output bit, so the low bits the visited set probes by are
// well spread.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// stateSet is the visited set: an exact set of fixed-width tuples of
// component ids that numbers them in the order they are added. The tuples
// are stored back to back, in pages of 1<<pageBits tuples, so they never
// move as the set grows; the index is an open-addressing table of
// uint64 slots, each holding a state's number and the top half of its
// hash, its tag. A tuple's probe starts at the slot its tag names, so
// growing the index re-places each slot by its tag alone, without
// rehashing the tuple. Like keySet, it holds no pointers but its pages'.
type stateSet struct {
	width  int
	n      int        // states held
	tuples [][]uint32 // state s's tuple is in page s>>pageBits
	slots  []uint64   // 0 is empty, else tag<<32 | state+1
}

// hashTuple hashes a tuple of ids.
func hashTuple(t []uint32) uint64 {
	h := uint64(len(t))
	for _, x := range t {
		h = bits.RotateLeft64((h^uint64(x))*0x9e3779b97f4a7c15, 29)
	}
	return mix64(h)
}

// tuple returns state s's tuple.
func (s *stateSet) tuple(id uint32) []uint32 {
	i := int(id&pageMask) * s.width
	return s.tuples[id>>pageBits][i : i+s.width : i+s.width]
}

// len returns the number of states held.
func (s *stateSet) len() int { return s.n }

// find probes for t, whose hash is h. It returns t's slot and true if the
// set holds t, otherwise the empty slot where t belongs and false.
func (s *stateSet) find(h uint64, t []uint32) (int, bool) {
	mask := len(s.slots) - 1
	tag := h >> 32
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return i, false
		}
		if e>>32 == tag && slices.Equal(s.tuple(uint32(e)-1), t) {
			return i, true
		}
	}
}

// add inserts t, copying it, and returns its state number and whether it
// was new.
func (s *stateSet) add(t []uint32) (uint32, bool) {
	n := s.len()
	if 4*(n+1) > 3*len(s.slots) {
		s.grow()
	}
	h := hashTuple(t)
	i, ok := s.find(h, t)
	if ok {
		return uint32(s.slots[i]) - 1, false
	}
	if n == maxIDs {
		panic("explore: more than 2^32-1 states")
	}
	if n&pageMask == 0 {
		s.tuples = append(s.tuples, make([]uint32, s.width<<pageBits))
	}
	copy(s.tuples[n>>pageBits][(n&pageMask)*s.width:], t)
	s.n++
	s.slots[i] = h>>32<<32 | uint64(n) + 1
	return uint32(n), true
}

// grow doubles the index, re-placing every slot by its tag.
func (s *stateSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	mask := len(s.slots) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(e>>32) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// bytes returns the bytes the set holds: its tuples and its index. It
// depends only on the number of states.
func (s *stateSet) bytes() int { return 4*s.width*s.n + 8*len(s.slots) }
