package program

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/history"
	"repro/sim"
)

// Machine runs one compiled program per processor against a sim.Memory.
// A step (StepThread) executes exactly one shared-memory operation plus the
// purely local computation around it, so schedulers control exactly the
// interleaving of visible operations; internal memory actions (deliveries,
// drains) are scheduled separately through Mem().
type Machine struct {
	mem     sim.Memory
	progs   []*compiled // shared, immutable
	threads []threadState
}

type threadState struct {
	pc     int
	regs   []int
	inCS   bool
	halted bool
}

// maxLocalSteps bounds consecutive local (non-shared) instructions;
// exceeding it indicates a loop with no shared access, which can
// never terminate or change interleaving.
const maxLocalSteps = 10_000

// NewMachine compiles one program per processor and binds them to the
// memory. The memory must serve exactly len(progs) processors.
func NewMachine(mem sim.Memory, progs [][]Stmt) (*Machine, error) {
	if mem.NumProcs() != len(progs) {
		return nil, fmt.Errorf("program: memory has %d processors, got %d programs", mem.NumProcs(), len(progs))
	}
	m := &Machine{mem: mem}
	for i, p := range progs {
		c, err := compileProgram(p)
		if err != nil {
			return nil, fmt.Errorf("program: processor %d: %w", i, err)
		}
		m.progs = append(m.progs, c)
		m.threads = append(m.threads, threadState{regs: make([]int, len(c.regs.names))})
	}
	return m, nil
}

// Mem returns the machine's memory, for scheduling internal actions and
// retrieving the recorded history.
func (m *Machine) Mem() sim.Memory { return m.mem }

// ShareMem points the machine at mem, in place of its memory, without
// copying it: the machine and every other holder of mem then share one
// memory, so a step of either, or a call to Mem().Step, changes both. mem
// must serve the machine's processors. A caller that keeps mem unchanged
// elsewhere may share it only with code that reads the machine and never
// steps it.
func (m *Machine) ShareMem(mem sim.Memory) { m.mem = mem }

// NumThreads returns the number of threads (= processors).
func (m *Machine) NumThreads() int { return len(m.threads) }

// Runnable returns the indices of threads that have not halted.
func (m *Machine) Runnable() []int {
	var out []int
	for i := range m.threads {
		if !m.threads[i].halted {
			out = append(out, i)
		}
	}
	return out
}

// Halted reports whether every thread has halted.
func (m *Machine) Halted() bool {
	for i := range m.threads {
		if !m.threads[i].halted {
			return false
		}
	}
	return true
}

// InCS reports how many threads are currently inside their critical
// sections — the mutual-exclusion invariant is InCS() <= 1.
func (m *Machine) InCS() int {
	n := 0
	for i := range m.threads {
		if m.threads[i].inCS {
			n++
		}
	}
	return n
}

// ThreadInCS reports whether thread i is inside its critical section.
func (m *Machine) ThreadInCS(i int) bool { return m.threads[i].inCS }

// ThreadHalted reports whether thread i has halted. Thread i is runnable
// exactly when it has not; searches that step every runnable thread test
// each index instead of building Runnable's slice.
func (m *Machine) ThreadHalted(i int) bool { return m.threads[i].halted }

// StepThread advances thread i by one visible operation: it executes local
// instructions until a visible operation — a shared load or store, or a
// critical-section marker — has executed, then continues through any
// further purely local instructions up to the next visible operation or
// halt. Critical-section markers are visible so that a thread is
// observable *inside* its critical section between steps; without this,
// an empty critical section would enter and exit within one step and the
// mutual-exclusion invariant could never see two threads inside. Calling
// StepThread on a halted thread is an error; an unbounded local loop (no
// visible operations) is also an error.
//
// A step is three parts, which a caller may also take apart: PeekOp names
// the visible operation, Op.Perform has the memory perform it, and
// FinishOp hands the memory's answer back to the thread and runs the local
// instructions after it.
func (m *Machine) StepThread(i int) error {
	if i < 0 || i >= len(m.threads) {
		return fmt.Errorf("program: thread %d out of range [0,%d)", i, len(m.threads))
	}
	if m.threads[i].halted {
		return fmt.Errorf("program: thread %d already halted", i)
	}
	if err := m.runLocal(i); err != nil || m.threads[i].halted {
		return err
	}
	op, _ := m.PeekOp(i)
	return m.FinishOp(i, op.Perform(m.mem, history.Proc(i)))
}

// OpKind is the kind of a visible operation.
type OpKind uint8

const (
	OpLoad OpKind = iota + 1
	OpStore
	OpCSEnter
	OpCSExit
)

// Op is a visible operation as PeekOp names it. Loc and Labeled describe
// a load or a store, and Value is the value a store writes; a
// critical-section marker has only its kind.
type Op struct {
	Kind    OpKind
	Loc     history.Loc
	Value   history.Value
	Labeled bool
}

// Perform has mem perform op for processor p and returns the memory's
// answer: the value a load reads, and 0 for a store. A critical-section
// marker does not reach the memory, and its answer is 0.
func (op Op) Perform(mem sim.Memory, p history.Proc) history.Value {
	switch op.Kind {
	case OpLoad:
		return mem.Read(p, op.Loc, op.Labeled)
	case OpStore:
		mem.Write(p, op.Loc, op.Value, op.Labeled)
	}
	return 0
}

// PeekOp returns the visible operation thread i's next step performs, and
// true, when the thread's pc is at one, as it is after any step of a
// thread that has not halted. It returns false for a halted thread, and
// for one that runs local instructions first, as a thread may at the
// start of its program. It changes nothing.
func (m *Machine) PeekOp(i int) (Op, bool) {
	t := &m.threads[i]
	if t.halted {
		return Op{}, false
	}
	switch ins := &m.progs[i].code[t.pc]; ins.op {
	case opLoad:
		return Op{Kind: OpLoad, Loc: history.Loc(ins.locOf(t.regs)), Labeled: ins.labeled}, true
	case opStore:
		return Op{Kind: OpStore, Loc: history.Loc(ins.locOf(t.regs)), Value: history.Value(ins.eval(t.regs)), Labeled: ins.labeled}, true
	case opCSIn:
		return Op{Kind: OpCSEnter}, true
	case opCSOut:
		return Op{Kind: OpCSExit}, true
	}
	return Op{}, false
}

// FinishOp completes thread i's step once the memory has answered v to
// the operation PeekOp names: a load puts v in its register (any other
// operation ignores v), a critical-section marker moves the thread in or
// out of its critical section, and then the thread runs its local
// instructions up to its next visible operation or halt. It touches only
// thread i, not the memory. Thread i must be at a visible operation.
func (m *Machine) FinishOp(i int, v history.Value) error {
	t := &m.threads[i]
	switch ins := &m.progs[i].code[t.pc]; ins.op {
	case opLoad:
		t.regs[ins.dst] = int(v)
	case opStore:
	case opCSIn:
		t.inCS = true
	case opCSOut:
		t.inCS = false
	default:
		return fmt.Errorf("program: thread %d is not at a visible operation", i)
	}
	t.pc++
	return m.runLocal(i)
}

// runLocal executes thread i's local instructions up to its next visible
// operation or halt.
func (m *Machine) runLocal(i int) error {
	t := &m.threads[i]
	code := m.progs[i].code
	for steps := 0; ; steps++ {
		if steps > maxLocalSteps {
			return fmt.Errorf("program: thread %d: no shared access in %d instructions (local livelock)", i, maxLocalSteps)
		}
		switch ins := &code[t.pc]; ins.op {
		case opAssign:
			t.regs[ins.dst] = ins.eval(t.regs)
			t.pc++
		case opJmp:
			t.pc = ins.target
		case opJz:
			if ins.eval(t.regs) == 0 {
				t.pc = ins.target
			} else {
				t.pc++
			}
		case opHalt:
			t.halted = true
			return nil
		default: // a visible operation
			return nil
		}
	}
}

// Run drives the machine with a scheduler function until every thread
// halts: at each step, choose(runnable, internal) must return either
// (thread index, -1) to step a thread or (-1, internal index) to perform a
// memory-internal action. Run is the simple driver for examples and
// benchmarks; exhaustive exploration lives in package explore.
func (m *Machine) Run(choose func(runnable []int, internal []string) (threadIdx, internalIdx int)) error {
	for !m.Halted() {
		ti, ii := choose(m.Runnable(), m.mem.Internal())
		switch {
		case ti >= 0:
			if err := m.StepThread(ti); err != nil {
				return err
			}
		case ii >= 0:
			m.mem.Step(ii)
		default:
			return fmt.Errorf("program: scheduler made no choice")
		}
	}
	return nil
}

// Registers returns thread i's locals by name. Registers are the
// observable outcome of a run: they hold every value the thread read.
func (m *Machine) Registers(i int) map[string]int {
	out := make(map[string]int, len(m.threads[i].regs))
	for name, idx := range m.progs[i].regs.index_ {
		out[name] = m.threads[i].regs[idx]
	}
	return out
}

// Clone copies the machine, including its memory (the memory's recorded
// history is shared as an immutable prefix), into fresh storage; it is
// CloneInto(nil).
func (m *Machine) Clone() *Machine { return m.CloneInto(nil) }

// CloneInto copies the machine into dst's storage, overwriting dst, and
// returns the copy. dst is nil, which allocates fresh storage, or a machine
// nothing else uses any more. Compiled code is shared. A dst that is
// already a copy of the same machine (it runs the same compiled programs)
// takes the copy as values only: pcs, flags and registers are copied into
// its existing storage, and no slice header or pointer field is
// rewritten except where the memory's copy needs it. Any other dst is
// laid out afresh, reusing its thread table where it fits; a fresh layout
// holds all threads' registers in one backing array.
func (m *Machine) CloneInto(dst *Machine) *Machine {
	if dst == nil {
		dst = new(Machine)
	}
	if !dst.sameProgs(m) {
		dst.layout(m)
	}
	for i := range m.threads {
		t, d := &m.threads[i], &dst.threads[i]
		d.pc, d.inCS, d.halted = t.pc, t.inCS, t.halted
		copy(d.regs, t.regs)
	}
	if mem := m.mem.CloneInto(dst.mem); mem != dst.mem {
		dst.mem = mem
	}
	return dst
}

// sameProgs reports whether m and o run the same compiled programs, so
// that their thread tables have the same shape.
func (m *Machine) sameProgs(o *Machine) bool {
	return len(m.progs) == len(o.progs) && (len(m.progs) == 0 || &m.progs[0] == &o.progs[0])
}

// layout gives m o's programs and a thread table shaped like o's, with
// every thread's registers in one backing array.
func (m *Machine) layout(o *Machine) {
	m.progs = o.progs
	if len(m.threads) != len(o.threads) {
		m.threads = make([]threadState, len(o.threads))
	}
	n := 0
	for _, t := range o.threads {
		n += len(t.regs)
	}
	regs := make([]int, n)
	for i, t := range o.threads {
		m.threads[i].regs, regs = regs[:len(t.regs):len(t.regs)], regs[len(t.regs):]
	}
}

// AppendFingerprint appends a canonical and exact encoding of the
// machine's live state — thread pcs, registers, critical-section and halt
// flags, then the memory's live state — to dst and returns the extended
// slice, for visited-state detection. Integers are varints and the
// register vector is length-prefixed. Recorded history is deliberately
// excluded.
func (m *Machine) AppendFingerprint(dst []byte) []byte {
	return m.mem.AppendFingerprint(m.appendThreads(dst))
}

// appendThreads appends the thread state AppendFingerprint begins with:
// each thread's AppendThreadKey, in thread order.
func (m *Machine) appendThreads(dst []byte) []byte {
	for i := range m.threads {
		dst = m.AppendThreadKey(dst, i)
	}
	return dst
}

// AppendThreadKey appends thread i's state — its pc, its length-prefixed
// registers and its critical-section and halt flags, as AppendFingerprint
// writes them — to dst and returns the extended slice. Thread i of two
// machines running the same programs is in the same state exactly when
// the keys are equal; SetThreadKey restores a thread from its key.
func (m *Machine) AppendThreadKey(dst []byte, i int) []byte {
	t := &m.threads[i]
	dst = binary.AppendVarint(dst, int64(t.pc))
	dst = binary.AppendUvarint(dst, uint64(len(t.regs)))
	for _, r := range t.regs {
		dst = binary.AppendVarint(dst, int64(r))
	}
	var flags byte
	if t.inCS {
		flags |= 1
	}
	if t.halted {
		flags |= 2
	}
	return append(dst, flags)
}

// SetThreadKey puts thread i in the state key encodes: a key
// AppendThreadKey wrote for thread i of a machine running the same
// programs. Other threads and the memory are left as they are. A key of
// any other shape panics.
func (m *Machine) SetThreadKey(i int, key []byte) {
	t := &m.threads[i]
	next := func() int64 {
		v, n := binary.Varint(key)
		if n <= 0 {
			panic(fmt.Sprintf("program: thread %d: malformed thread key", i))
		}
		key = key[n:]
		return v
	}
	t.pc = int(next())
	n, w := binary.Uvarint(key)
	if w <= 0 || n != uint64(len(t.regs)) {
		panic(fmt.Sprintf("program: thread %d: thread key is not for %d registers", i, len(t.regs)))
	}
	key = key[w:]
	for r := range t.regs {
		t.regs[r] = int(next())
	}
	if len(key) != 1 {
		panic(fmt.Sprintf("program: thread %d: malformed thread key", i))
	}
	t.inCS, t.halted = key[0]&1 != 0, key[0]&2 != 0
}

// Fingerprint returns AppendFingerprint's encoding as a string, built in a
// pooled buffer, so the returned string is its only copy.
func (m *Machine) Fingerprint() string {
	bp := fpBufs.Get().(*[]byte)
	*bp = m.AppendFingerprint((*bp)[:0])
	s := string(*bp)
	fpBufs.Put(bp)
	return s
}

var fpBufs = sync.Pool{New: func() any { return new([]byte) }}
