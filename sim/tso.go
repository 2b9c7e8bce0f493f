package sim

import (
	"fmt"

	"repro/history"
)

// TSOMemory is the store-buffer machine the paper describes in Section 3.2:
// each processor owns a FIFO write buffer in front of a single logically
// shared memory. A write enqueues locally; a read returns the most recent
// buffered write to the location if one exists, otherwise the shared
// memory's value; buffered writes drain to shared memory in FIFO order, one
// buffer entry per internal action.
//
// The forwarding machine (NewTSO) implements the paper's operational
// description — and SPARC TSO — literally: a read may observe the
// processor's own buffered write before it reaches memory. The paper's
// NON-operational TSO characterization is strictly stronger: its partial
// program order keeps same-location write→read pairs ordered, which
// forbids the store-forwarding history SB+rfi that this machine produces.
// NewTSONoForward builds the variant that drains the issuing processor's
// buffer before any read of a location it has buffered; its histories are
// exactly captured by the paper's formal TSO. EXPERIMENTS.md exhibits the
// divergence.
type TSOMemory struct {
	nprocs  int
	forward bool
	locs    *locTable
	store   grid[cell] // one row
	buffers [][]update // per processor, oldest first
	rec     Recorder
}

// NewTSO returns a store-forwarding TSO memory for nprocs processors,
// matching the paper's Section 3.2 operational description (and SPARC).
func NewTSO(nprocs int) *TSOMemory { return newTSO(nprocs, true) }

// NewTSONoForward returns the non-forwarding variant, whose histories
// satisfy the paper's formal TSO characterization.
func NewTSONoForward(nprocs int) *TSOMemory { return newTSO(nprocs, false) }

func newTSO(nprocs int, forward bool) *TSOMemory {
	return &TSOMemory{
		nprocs:  nprocs,
		forward: forward,
		locs:    new(locTable),
		store:   grid[cell]{rows: 1},
		buffers: make([][]update, nprocs),
		rec:     newRecorder(nprocs),
	}
}

// Name implements Memory. The non-forwarding variant is named "TSO"
// because its histories are exactly the paper's formal TSO; the forwarding
// machine is "TSO-fwd" (its store-forwarding histories, e.g. SB+rfi, fall
// outside the paper's TSO but inside its PC).
func (m *TSOMemory) Name() string {
	if m.forward {
		return "TSO-fwd"
	}
	return "TSO"
}

// NumProcs implements Memory.
func (m *TSOMemory) NumProcs() int { return m.nprocs }

// Read implements Memory: store-buffer forwarding first, then memory. The
// non-forwarding variant instead drains the processor's own buffer when it
// holds a write to the location, then reads memory.
func (m *TSOMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	id := m.locs.id(loc)
	buf := m.buffers[p]
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].loc != id {
			continue
		}
		if m.forward {
			m.rec.Read(p, loc, buf[i].cell.tag, labeled)
			return buf[i].cell.val
		}
		// Drain through the most recent write to loc, preserving
		// FIFO order, then fall through to the memory read.
		for j := 0; j <= i; j++ {
			*m.store.ref(0, buf[j].loc) = buf[j].cell
		}
		m.buffers[p] = append([]update(nil), buf[i+1:]...)
		break
	}
	c := m.store.at(0, id)
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory: append to the processor's FIFO buffer.
func (m *TSOMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	tag := m.rec.Write(p, loc, labeled)
	m.buffers[p] = append(m.buffers[p], update{loc: m.locs.id(loc), cell: cell{val: v, tag: tag}, labeled: labeled})
}

// Internal implements Memory: one drain action per nonempty buffer.
func (m *TSOMemory) Internal() []string {
	var out []string
	for p, buf := range m.buffers {
		if len(buf) > 0 {
			out = append(out, fmt.Sprintf("drain p%d %s", p, m.locs.name(buf[0].loc)))
		}
	}
	return out
}

// NumInternal implements Memory.
func (m *TSOMemory) NumInternal() int {
	n := 0
	for _, buf := range m.buffers {
		if len(buf) > 0 {
			n++
		}
	}
	return n
}

// Step implements Memory.
func (m *TSOMemory) Step(i int) {
	for p, buf := range m.buffers {
		if len(buf) == 0 {
			continue
		}
		if i == 0 {
			*m.store.ref(0, buf[0].loc) = buf[0].cell
			m.buffers[p] = buf[1:]
			return
		}
		i--
	}
	panic("sim: TSO Step index out of range")
}

// Clone implements Memory.
func (m *TSOMemory) Clone() Memory { return m.CloneInto(nil) }

// CloneInto implements Memory.
func (m *TSOMemory) CloneInto(dst Memory) Memory {
	d, _ := dst.(*TSOMemory)
	if d == nil {
		d = new(TSOMemory)
	}
	*d = TSOMemory{
		nprocs:  m.nprocs,
		forward: m.forward,
		locs:    m.locs,
		store:   m.store.cloneInto(d.store),
		buffers: cloneQueuesInto(d.buffers, m.buffers),
		rec:     m.rec,
	}
	return d
}

// AppendFingerprint implements Memory.
func (m *TSOMemory) AppendFingerprint(dst []byte) []byte { return m.encode(dst, false) }

// AppendKey implements Memory.
func (m *TSOMemory) AppendKey(dst []byte) []byte { return m.encode(dst, true) }

// encode appends the fingerprint, or with byID the key, of m's state.
func (m *TSOMemory) encode(dst []byte, byID bool) []byte {
	f := newFingerprinter(m.locs, byID)
	f.replica(m.store.row(0))
	for _, buf := range m.buffers {
		f.queue(buf)
	}
	return f.finish(dst)
}

// Recorder implements Memory.
func (m *TSOMemory) Recorder() *Recorder { return &m.rec }
