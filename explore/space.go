package explore

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/program"
	"repro/sim"
)

// This file holds what both searches share: the collapsed state space
// and the one successor path.
//
// A search does not keep a machine, nor a machine's whole key, per state.
// A state is a tuple of component ids: one thread-state id per thread, in
// thread order, then a memory id. Each component is interned once, in a
// keySet of its exact key (program.Machine.AppendThreadKey for a thread,
// sim.Memory.AppendKey for the memory), so within one search two states
// are equal exactly when their tuples are. A thread state is represented
// by its key bytes alone, which SetThreadKey loads back into a machine; a
// memory state by a clone of a memory in that state, which is never
// stepped.
//
// A thread step changes only its thread and the memory, and an internal
// action only the memory, so successors are looked up in two memos:
// (memory id, internal action) → memory id, and per thread
// (memory id, thread-state id) → (thread-state id, memory id). Only a
// memo miss is stepped: the memory's representative is copied into a
// scratch machine, the thread's state loaded into it, the step taken and
// the results keyed. Most transitions are memo hits and cost a lookup, a
// tuple and a probe of the visited set; a machine is built from the
// representatives only for the invariant check, once per state.
//
// Expansion (scratch.expand) only reads the tables and the memos: it
// records a component the tables do not hold yet as pending, in the
// scratch, with its key and, for a memory, a clone of it. Settling a node
// (search.settle) interns pending components, writes the memo entries of
// the misses and adds the successors' tuples to the visited set. The
// depth-first search settles each node right after expanding it; the
// breadth-first one expands a chunk of nodes on its workers and settles
// them in frontier order on one goroutine.

// space is a search's collapsed state space: the component tables, the
// memos, and the visited set of component tuples.
type space struct {
	threads []*keySet // by thread: thread-state keys
	halted  [][]bool  // by thread and thread-state id
	mems    *keySet   // memory keys
	// memReps holds, by memory id, a memory in that state.
	memReps []sim.Memory
	// internal holds one slot per enabled internal action of each
	// memory: 1 + the id of the memory the action leads to, or 0 while
	// it is unknown. Memory m's slots are
	// internal[memFirst[m]:memFirst[m+1]].
	internal []uint32
	memFirst []uint32
	// steps[i] maps thread i's packed (memory id, thread-state id) to the
	// packed (thread-state id, memory id) its step leads to. Like the
	// tables, the maps are read by any number of goroutines while none
	// writes them.
	steps []map[uint64]uint64
	seen  stateSet
}

// newSpace interns root's components and adds root's state to the visited
// set, as state 0. root becomes memory 0's representative and must not be
// changed afterwards.
func newSpace(root *program.Machine) *space {
	n := root.NumThreads()
	sp := &space{
		threads:  make([]*keySet, n),
		halted:   make([][]bool, n),
		mems:     newKeySet(),
		memFirst: []uint32{0},
		steps:    make([]map[uint64]uint64, n),
		seen:     stateSet{width: n + 1, slots: make([]uint64, minSlots)},
	}
	t := make([]uint32, n+1)
	var key []byte
	for i := range n {
		sp.steps[i] = map[uint64]uint64{}
		sp.threads[i] = newKeySet()
		key = root.AppendThreadKey(key[:0], i)
		t[i] = sp.internThread(i, sp.threads[i].hash(key), key, root.ThreadHalted(i))
	}
	key = root.Mem().AppendKey(key[:0])
	t[n], _ = sp.internMem(sp.mems.hash(key), key, root.Mem())
	sp.seen.add(t)
	return sp
}

// internThread returns the id of thread i's state whose key, hashed h, is
// key; halted says whether the thread has halted in it.
func (sp *space) internThread(i int, h uint64, key []byte, halted bool) uint32 {
	id, added := sp.threads[i].intern(h, key)
	if added {
		sp.halted[i] = append(sp.halted[i], halted)
	}
	return id
}

// internMem returns the id of the memory state whose key, hashed h, is
// key, and whether it is new. If it is, rep, a memory in that state,
// becomes its representative.
func (sp *space) internMem(h uint64, key []byte, rep sim.Memory) (uint32, bool) {
	id, added := sp.mems.intern(h, key)
	if added {
		sp.memReps = append(sp.memReps, rep)
		// Grown in place rather than by appending a make'd slice, which
		// -race builds allocate.
		n, l := rep.NumInternal(), len(sp.internal)
		sp.internal = slices.Grow(sp.internal, n)[:l+n]
		clear(sp.internal[l:])
		sp.memFirst = append(sp.memFirst, uint32(l+n))
	}
	return id, added
}

// terminal reports whether the state t is terminal: every thread halted
// and no internal action enabled.
func (sp *space) terminal(t []uint32) bool {
	mem := t[len(t)-1]
	if sp.memFirst[mem+1] != sp.memFirst[mem] {
		return false
	}
	for i, id := range t[:len(t)-1] {
		if !sp.halted[i][id] {
			return false
		}
	}
	return true
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
// hash. Like keySet, it holds no pointers and may be read by any number
// of goroutines while none writes it.
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

// has reports whether the set holds t.
func (s *stateSet) has(t []uint32) bool {
	_, ok := s.find(hashTuple(t), t)
	return ok
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

// child is one successor as an expansion records it: the step taken
// (without its parent, which settle links), and the ids of the thread
// state (for a program step) and the memory it leads to. newThread and
// newMem are 1 + the index of a component pending in the expanding
// scratch, which settle interns, or 0 when the id is known. miss marks a
// successor that was stepped, whose result settle writes to its memo.
type child struct {
	step              step
	thread, mem       uint32
	newThread, newMem int32
	miss              bool
}

// tupleOf writes into dst the tuple of the state c reaches from the state
// t, once c's ids are known.
func (c *child) tupleOf(dst, t []uint32) []uint32 {
	dst = append(dst[:0], t...)
	if !c.step.internal {
		dst[c.step.index] = c.thread
	}
	dst[len(dst)-1] = c.mem
	return dst
}

// pending is a component a scratch stepped into that the tables did not
// hold: its key, at pendKeys[start:end], hashed h; whether the thread has
// halted, for a thread state; and a copy of it, for a memory, which
// becomes the memory's representative if settling interns it as new and
// otherwise goes back to the scratch's spares.
type pending struct {
	start, end int
	h          uint64
	halted     bool
	rep        sim.Memory
}

// scratch is one searcher's reusable storage: the machine states are
// shown to the invariant in, the machine memo misses are stepped in, the
// buffers keys and tuples are built in, and the children and pending
// components of the expansions since the last reset.
type scratch struct {
	view  *program.Machine
	shown []uint32 // the components view holds, ^0 for none
	m     *program.Machine
	buf   []byte
	tuple []uint32
	// hits and stepped count the successors found in a memo and the
	// memo misses stepped.
	hits, stepped int
	children      []child
	pend          []pending
	pendKeys      []byte
	// spares holds memories no pending component holds any more, for
	// the next ones to be copied into.
	spares []sim.Memory
}

// newScratch returns a scratch whose machines are copies of root.
func newScratch(root *program.Machine) *scratch {
	s := &scratch{view: root.Clone(), m: root.Clone(), shown: make([]uint32, root.NumThreads()+1)}
	for i := range s.shown {
		s.shown[i] = ^uint32(0)
	}
	return s
}

// reset forgets the children and pending components recorded so far, and
// keeps the pending memories that did not become representatives as
// spares.
func (s *scratch) reset() {
	for _, p := range s.pend {
		if p.rep != nil {
			s.spares = append(s.spares, p.rep)
		}
	}
	clear(s.pend)
	s.children, s.pend, s.pendKeys = s.children[:0], s.pend[:0], s.pendKeys[:0]
}

// show returns s's view machine in the state t, loading only the
// components it does not hold already.
func (s *scratch) show(sp *space, t []uint32) *program.Machine {
	n := len(t) - 1
	for i, id := range t[:n] {
		if s.shown[i] != id {
			s.view.SetThreadKey(i, sp.threads[i].key(id))
			s.shown[i] = id
		}
	}
	if s.shown[n] != t[n] {
		sp.memReps[t[n]].CloneInto(s.view.Mem())
		s.shown[n] = t[n]
	}
	return s.view
}

// expansion is what expanding one node yields: the invariant's verdict,
// whether the state is terminal, and otherwise its successors, which live
// in the scratch s until it is reset. dropped counts successors the
// expansion found already visited; they are still transitions, and settle
// counts them as such.
type expansion struct {
	s         *scratch
	violation error
	terminal  bool
	err       error
	children  []child
	dropped   int
}

// expand checks node n's state and, unless it violates the invariant, is
// terminal, is at the depth cap or capped is set, lists its successors:
// program steps first, then internal actions, in index order. A memo hit
// costs no step; a miss is stepped in s. With prefilter, a hit that
// reaches a state the visited set already holds is only counted. expand
// reads the space and writes nothing to it.
func (s *scratch) expand(sr *search, n *node, capped, prefilter bool) expansion {
	sp := sr.sp
	exp := expansion{s: s}
	t := sp.seen.tuple(n.state)
	if err := sr.inv(s.show(sp, t)); err != nil {
		exp.violation = err
		return exp
	}
	if sp.terminal(t) {
		exp.terminal = true
		return exp
	}
	if n.depth >= sr.opts.MaxDepth || capped {
		return exp
	}
	first := len(s.children)
	mem := t[len(t)-1]
	visit := func(c child, hit bool) {
		if hit {
			s.hits++
		}
		if hit && prefilter {
			s.tuple = c.tupleOf(s.tuple, t)
			if sp.seen.has(s.tuple) {
				exp.dropped++
				return
			}
		}
		s.children = append(s.children, c)
	}
	for i, tid := range t[:len(t)-1] {
		if sp.halted[i][tid] {
			continue
		}
		c, hit := sp.threadStep(t, i)
		if !hit {
			if exp.err = s.stepThread(sp, &c, tid, mem); exp.err != nil {
				return exp
			}
		}
		visit(c, hit)
	}
	lo, hi := sp.memFirst[mem], sp.memFirst[mem+1]
	for a := lo; a < hi; a++ {
		c := child{step: step{internal: true, index: int(a - lo)}}
		hit := sp.internal[a] != 0
		if hit {
			c.mem = sp.internal[a] - 1
		} else {
			mm := sp.memReps[mem].CloneInto(s.m.Mem())
			mm.Step(c.step.index)
			s.stepped++
			c.miss = true
			c.mem, c.newMem = s.memID(sp, mm)
		}
		visit(c, hit)
	}
	exp.children = s.children[first:]
	return exp
}

// threadStep returns the successor thread i's step in state t leads to,
// with its components' ids, and true if the memo holds it; otherwise the
// step alone and false.
func (sp *space) threadStep(t []uint32, i int) (child, bool) {
	c := child{step: step{index: i}}
	v, hit := sp.steps[i][pack(t[len(t)-1], t[i])]
	c.thread, c.mem = unpack(v)
	return c, hit
}

// stepThread steps thread c.step.index from thread state tid on memory
// mem in s's machine, and records the result in c.
func (s *scratch) stepThread(sp *space, c *child, tid, mem uint32) error {
	i := c.step.index
	sp.memReps[mem].CloneInto(s.m.Mem())
	s.m.SetThreadKey(i, sp.threads[i].key(tid))
	if err := s.m.StepThread(i); err != nil {
		return fmt.Errorf("explore: step thread %d: %w", i, err)
	}
	s.stepped++
	c.miss = true
	s.buf = s.m.AppendThreadKey(s.buf[:0], i)
	th := sp.threads[i]
	h := th.hash(s.buf)
	if id, ok := th.lookup(h, s.buf); ok {
		c.thread = id
	} else {
		c.newThread = s.addPending(h, s.m.ThreadHalted(i), nil)
	}
	c.mem, c.newMem = s.memID(sp, s.m.Mem())
	return nil
}

// memID returns the id of mem's state, or, if the table does not hold it,
// 1 + the index of a pending copy of mem.
func (s *scratch) memID(sp *space, mem sim.Memory) (uint32, int32) {
	s.buf = mem.AppendKey(s.buf[:0])
	h := sp.mems.hash(s.buf)
	if id, ok := sp.mems.lookup(h, s.buf); ok {
		return id, 0
	}
	var spare sim.Memory
	if n := len(s.spares); n > 0 {
		spare, s.spares = s.spares[n-1], s.spares[:n-1]
	}
	return 0, s.addPending(h, false, mem.CloneInto(spare))
}

// addPending records the component keyed by s.buf, hashed h, as pending
// and returns 1 + its index.
func (s *scratch) addPending(h uint64, halted bool, rep sim.Memory) int32 {
	start := len(s.pendKeys)
	s.pendKeys = append(s.pendKeys, s.buf...)
	s.pend = append(s.pend, pending{start: start, end: len(s.pendKeys), h: h, halted: halted, rep: rep})
	return int32(len(s.pend))
}

// search is one exhaustive search's shared state: its options, its space,
// the result it builds and the steps of the states it keeps.
type search struct {
	m0    *program.Machine
	opts  Options
	inv   Invariant
	root  *program.Machine // m0's history-free copy, memory 0's representative
	sp    *space
	res   Result
	steps stepSlab
	// parent and tuple are settle's buffers.
	parent, tuple []uint32
}

func newSearch(m0 *program.Machine, opts Options, inv Invariant) *search {
	root := m0.Clone()
	root.Mem().Recorder().Discard()
	sr := &search{m0: m0, opts: opts, inv: inv, root: root, sp: newSpace(root)}
	sr.res.Complete = true
	if opts.TrackProgress {
		sr.res.edges = [][]uint32{}
	}
	return sr
}

// settle counts node n, expanded as exp, into the search's result: as a
// violation, a terminal state, a state at a cap, or a state whose
// successors are transitions. It interns the successors' pending
// components, writes their memo entries, and appends a node for each
// successor that reaches a new state to next. It reports whether the
// search is to stop.
func (sr *search) settle(n *node, exp *expansion, next *[]node) (stop bool, err error) {
	res, opts, sp := &sr.res, &sr.opts, sr.sp
	res.States++
	if exp.err != nil {
		return true, exp.err
	}
	switch {
	case exp.violation != nil: // not explored past
		res.found = append(res.found, found{err: exp.violation, step: n.step})
		if opts.StopAtFirst {
			res.truncate(IncompleteFirstViolation)
			return true, nil
		}
	case exp.terminal:
		res.TerminalStates++
		if opts.TrackProgress {
			res.terminals = append(res.terminals, n.state)
		}
		if opts.OnTerminal != nil {
			t, err := n.step.replay(sr.m0)
			if err != nil {
				return true, err
			}
			if !opts.OnTerminal(t) {
				res.truncate(IncompleteCallbackStop)
				return true, nil
			}
		}
	case n.depth >= opts.MaxDepth:
		res.truncate(IncompleteMaxDepth)
	case res.States >= opts.MaxStates:
		res.truncate(IncompleteMaxStates)
	default:
		res.Transitions += exp.dropped
		// The visited set's tuples move as it grows, so the parent's is
		// copied.
		sr.parent = append(sr.parent[:0], sp.seen.tuple(n.state)...)
		mem := sr.parent[len(sr.parent)-1]
		s := exp.s
		for i := range exp.children {
			c := &exp.children[i]
			res.Transitions++
			if c.newThread != 0 {
				p := &s.pend[c.newThread-1]
				c.thread = sp.internThread(c.step.index, p.h, s.pendKeys[p.start:p.end], p.halted)
			}
			if c.newMem != 0 {
				p := &s.pend[c.newMem-1]
				var added bool
				if c.mem, added = sp.internMem(p.h, s.pendKeys[p.start:p.end], p.rep); added {
					p.rep = nil // the representative now
				}
			}
			if c.miss {
				if c.step.internal {
					sp.internal[sp.memFirst[mem]+uint32(c.step.index)] = c.mem + 1
				} else {
					sp.steps[c.step.index][pack(mem, sr.parent[c.step.index])] = pack(c.thread, c.mem)
				}
			}
			sr.tuple = c.tupleOf(sr.tuple, sr.parent)
			id, added := sp.seen.add(sr.tuple)
			if opts.TrackProgress {
				res.addEdge(n.state, id)
			}
			if added {
				st := c.step
				st.parent = n.step
				*next = append(*next, node{state: id, step: sr.steps.add(st), depth: n.depth + 1})
			}
		}
	}
	return false, nil
}
