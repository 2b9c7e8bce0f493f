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
// action only the memory, so successors are looked up in memos, written
// as the search takes each step for the first time:
//
//   - (memory id, internal action) → memory id;
//   - per thread, (memory id, thread-state id) → (thread-state id,
//     memory id), the whole step.
//
// A thread step the second memo misses is taken apart as
// program.Machine.StepThread takes it (PeekOp, Op.Perform, FinishOp):
// each thread state records the id of the visible operation its step
// performs, and two more memos hold the parts:
//
//   - per thread, (memory id, operation id) → (memory id, value id): the
//     memory's answer to a load or store. A load is not a pure read on
//     every memory (the non-forwarding TSO memory drains a buffer on it),
//     so loads go through this memo too; only critical-section markers
//     skip the memory.
//   - per thread, (thread-state id, value id) → thread-state id: the
//     thread finishing its step with the memory's answer.
//
// Many (memory, thread state) pairs issue an operation the memory has
// already answered, and many answers lead a thread on to a state already
// reached, so most whole-step misses step nothing. Only a miss of a part
// is stepped, in a scratch machine loaded from the representatives, and
// its results keyed and interned. A thread not at a visible operation (in
// practice, one in its initial state) takes its whole step in the scratch
// machine.

// Special operation ids: a thread state's operation is one of these or
// an index into space.opTab.
const (
	// opHalted marks a halted thread, which takes no step.
	opHalted = ^uint32(0) - iota
	// opLocal marks a thread that runs local instructions before its
	// visible operation, and so takes its whole step in a machine.
	opLocal
)

// space is a search's collapsed state space: the component tables, the
// memos, and the visited set of component tuples, with the scratch
// machine and buffer the memo misses are stepped and keyed in.
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
	// steps[i] maps thread i's packed (memory id, thread-state id) to
	// the packed (thread-state id, memory id) its step leads to.
	steps []map[uint64]uint64
	// answers[i] maps thread i's packed (memory id, operation id) to the
	// packed (memory id, value id) the memory's answer leaves; finishes[i]
	// maps its packed (thread-state id, value id) to the thread state the
	// answer leads to.
	answers  []map[uint64]uint64
	finishes []map[uint64]uint32
	// opTab and vals number the operations and the values, which
	// opIDs and valIDs index.
	opTab  []program.Op
	opIDs  map[program.Op]uint32
	vals   []history.Value
	valIDs map[history.Value]uint32
	seen   stateSet
	m      *program.Machine // the scratch machine misses are stepped in
	buf    []byte
	// hits counts the transitions found in the whole-step or internal
	// memo, factored those found in the parts' memos, and stepped those
	// for which some machine was stepped.
	hits, factored, stepped int
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
		steps:    make([]map[uint64]uint64, n),
		answers:  make([]map[uint64]uint64, n),
		finishes: make([]map[uint64]uint32, n),
		opIDs:    map[program.Op]uint32{},
		vals:     []history.Value{0}, // value id 0, the answer to all but loads
		valIDs:   map[history.Value]uint32{0: 0},
		seen:     stateSet{width: n + 1, slots: make([]uint64, minSlots)},
		m:        root.Clone(),
	}
	t := make([]uint32, n+1)
	for i := range n {
		sp.threads[i] = newKeySet()
		sp.steps[i] = map[uint64]uint64{}
		sp.answers[i] = map[uint64]uint64{}
		sp.finishes[i] = map[uint64]uint32{}
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
	whole := pack(mem, tid)
	if v, ok := sp.steps[i][whole]; ok {
		sp.hits++
		next, nmem = unpack(v)
		return next, nmem, nil
	}
	stepped := false
	if op := sp.ops[i][tid]; op == opLocal {
		stepped = true
		sp.memReps[mem].CloneInto(sp.m.Mem())
		sp.m.SetThreadKey(i, sp.threads[i].key(tid))
		if err := sp.m.StepThread(i); err != nil {
			return 0, 0, fmt.Errorf("explore: step thread %d: %w", i, err)
		}
		next, nmem = sp.internThread(sp.m, i), sp.internMem(sp.m.Mem())
	} else {
		nmem = mem
		val := uint32(0)
		if o := &sp.opTab[op]; o.Kind == program.OpLoad || o.Kind == program.OpStore {
			k := pack(mem, op)
			a, ok := sp.answers[i][k]
			if !ok {
				stepped = true
				mm := sp.memReps[mem].CloneInto(sp.m.Mem())
				v := o.Perform(mm, history.Proc(i))
				a = pack(sp.internMem(mm), sp.valID(v))
				sp.answers[i][k] = a
			}
			nmem, val = unpack(a)
		}
		k := pack(tid, val)
		var ok bool
		if next, ok = sp.finishes[i][k]; !ok {
			stepped = true
			sp.m.SetThreadKey(i, sp.threads[i].key(tid))
			if err := sp.m.FinishOp(i, sp.vals[val]); err != nil {
				return 0, 0, fmt.Errorf("explore: step thread %d: %w", i, err)
			}
			next = sp.internThread(sp.m, i)
			sp.finishes[i][k] = next
		}
	}
	if stepped {
		sp.stepped++
	} else {
		sp.factored++
	}
	sp.steps[i][whole] = pack(next, nmem)
	return next, nmem, nil
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

// pack packs two ids into a memo key or value.
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
// are stored back to back; the index is an open-addressing table of
// uint64 slots, each holding a state's number and the top half of its
// hash. Like keySet, it holds no pointers.
type stateSet struct {
	width  int
	tuples []uint32 // state s's tuple is tuples[s*width:(s+1)*width]
	slots  []uint64 // 0 is empty, else tag<<32 | state+1
}

// hashTuple hashes a tuple of ids.
func hashTuple(t []uint32) uint64 {
	h := uint64(len(t))
	for _, x := range t {
		h = bits.RotateLeft64((h^uint64(x))*0x9e3779b97f4a7c15, 29)
	}
	return mix64(h)
}

// tuple returns state s's tuple, which add may move.
func (s *stateSet) tuple(id uint32) []uint32 {
	i := int(id) * s.width
	return s.tuples[i : i+s.width : i+s.width]
}

// len returns the number of states held.
func (s *stateSet) len() int { return len(s.tuples) / s.width }

// find probes for t, whose hash is h. It returns t's slot and true if the
// set holds t, otherwise the empty slot where t belongs and false.
func (s *stateSet) find(h uint64, t []uint32) (int, bool) {
	mask := len(s.slots) - 1
	tag := h >> 32
	for i := int(h) & mask; ; i = (i + 1) & mask {
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
	s.tuples = append(s.tuples, t...)
	s.slots[i] = h>>32<<32 | uint64(n) + 1
	return uint32(n), true
}

// grow doubles the index, re-placing every slot by its tuple's hash.
func (s *stateSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	mask := len(s.slots) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(hashTuple(s.tuple(uint32(e)-1))) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// bytes returns the bytes the set holds: its tuples and its index. It
// depends only on the number of states.
func (s *stateSet) bytes() int { return 4*len(s.tuples) + 8*len(s.slots) }
