package sim

import "repro/history"

// SCMemory is a single-ported sequentially consistent memory: one copy of
// every location, operations applied atomically in invocation order. It
// has no internal nondeterminism; the instruction interleaving chosen by
// the scheduler is the serialization.
type SCMemory struct {
	nprocs int
	locs   *locTable
	store  grid[cell] // one row
	rec    Recorder
}

// NewSC returns a sequentially consistent memory for nprocs processors.
func NewSC(nprocs int) *SCMemory {
	return &SCMemory{
		nprocs: nprocs,
		locs:   new(locTable),
		store:  grid[cell]{rows: 1},
		rec:    newRecorder(nprocs),
	}
}

// Name implements Memory.
func (m *SCMemory) Name() string { return "SC" }

// NumProcs implements Memory.
func (m *SCMemory) NumProcs() int { return m.nprocs }

// Read implements Memory.
func (m *SCMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	c := m.store.at(0, m.locs.id(loc))
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory.
func (m *SCMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	tag := m.rec.Write(p, loc, labeled)
	*m.store.ref(0, m.locs.id(loc)) = cell{val: v, tag: tag}
}

// Internal implements Memory; SC memory has no internal actions.
func (m *SCMemory) Internal() []string { return nil }

// NumInternal implements Memory.
func (m *SCMemory) NumInternal() int { return 0 }

// DescribeInternal implements Memory.
func (m *SCMemory) DescribeInternal(int) string { panic("sim: SC memory has no internal actions") }

// Step implements Memory.
func (m *SCMemory) Step(int) { panic("sim: SC memory has no internal actions") }

// Clone implements Memory.
func (m *SCMemory) Clone() Memory { return m.CloneInto(nil) }

// CloneInto implements Memory.
func (m *SCMemory) CloneInto(dst Memory) Memory {
	d, _ := dst.(*SCMemory)
	if d == nil {
		d = new(SCMemory)
	}
	if d.locs != m.locs {
		d.nprocs, d.locs = m.nprocs, m.locs
	}
	d.store.copyFrom(m.store)
	d.rec.copyFrom(&m.rec)
	return d
}

// AppendFingerprint implements Memory.
func (m *SCMemory) AppendFingerprint(dst []byte) []byte { return m.encode(dst, false) }

// AppendKey implements Memory.
func (m *SCMemory) AppendKey(dst []byte) []byte { return m.encode(dst, true) }

// encode appends the fingerprint, or with byID the key, of m's state.
func (m *SCMemory) encode(dst []byte, byID bool) []byte {
	e := &encoder{dst: dst, table: m.locs, byID: byID}
	for e.pass() {
		e.replica(m.store.row(0))
	}
	return e.dst
}

// Recorder implements Memory.
func (m *SCMemory) Recorder() *Recorder { return &m.rec }
