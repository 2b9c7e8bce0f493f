package sim

import (
	"fmt"

	"repro/history"
)

// RCMemory is a DASH-like release-consistent memory (paper Section 3.4).
// Ordinary (data) locations are replicated: an ordinary write applies
// locally and propagates asynchronously on per-sender FIFO channels, with a
// global per-location version providing the coherence RC requires even for
// ordinary operations. A release (labeled write) first flushes the issuing
// processor's outstanding ordinary updates to every replica — RC's "an
// ordinary operation completes before the following release is performed" —
// and then performs the synchronization write according to the mode:
//
//   - RCsc (NewRCsc): labeled operations execute against a single-ported
//     global synchronization store, making them sequentially consistent;
//   - RCpc (NewRCpc): labeled operations use the same replicated
//     coherent-FIFO machinery as data (processor consistent à la Goodman),
//     so a processor may complete acquires from its own replica before the
//     other processors' releases reach it.
//
// The RCpc variant is the machine on which Lamport's Bakery algorithm
// breaks: both competitors can write their tickets locally, read the
// other's synchronization variables as still 0, and enter the critical
// section together. Package explore reproduces this mechanically.
type RCMemory struct {
	name      string
	nprocs    int
	labeledSC bool
	locs      *locTable
	syncStore grid[cell] // RCsc only; one row
	stores    grid[cell] // a row per replica
	channels  [][]update // channels[sender*nprocs+receiver], oldest first
	versions  []int      // by location id
	rec       Recorder
}

// NewRCsc returns a release-consistent memory whose labeled operations are
// sequentially consistent.
func NewRCsc(nprocs int) *RCMemory { return newRC("RCsc", nprocs, true) }

// NewRCpc returns a release-consistent memory whose labeled operations are
// only processor consistent.
func NewRCpc(nprocs int) *RCMemory { return newRC("RCpc", nprocs, false) }

func newRC(name string, nprocs int, labeledSC bool) *RCMemory {
	return &RCMemory{
		name:      name,
		nprocs:    nprocs,
		labeledSC: labeledSC,
		locs:      new(locTable),
		syncStore: grid[cell]{rows: 1},
		stores:    grid[cell]{rows: nprocs},
		channels:  make([][]update, nprocs*nprocs),
		rec:       newRecorder(nprocs),
	}
}

// Name implements Memory.
func (m *RCMemory) Name() string { return m.name }

// NumProcs implements Memory.
func (m *RCMemory) NumProcs() int { return m.nprocs }

// Read implements Memory.
func (m *RCMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	id := m.locs.id(loc)
	if labeled && m.labeledSC {
		c := m.syncStore.at(0, id)
		m.rec.Read(p, loc, c.tag, labeled)
		return c.val
	}
	c := m.stores.at(int(p), id)
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory.
func (m *RCMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	if labeled {
		// A release completes only after the processor's earlier
		// ordinary writes have performed everywhere: flush p's
		// outgoing channels synchronously.
		m.flush(p)
	}
	id := m.locs.id(loc)
	tag := m.rec.Write(p, loc, labeled)
	if labeled && m.labeledSC {
		*m.syncStore.ref(0, id) = cell{val: v, tag: tag}
		return
	}
	m.versions = bump(m.versions, id)
	c := cell{val: v, tag: tag, version: m.versions[id]}
	m.apply(p, id, c)
	for q := 0; q < m.nprocs; q++ {
		if q != int(p) {
			ch := &m.channels[int(p)*m.nprocs+q]
			*ch = append(*ch, update{loc: id, cell: c, labeled: labeled})
		}
	}
}

// flush synchronously delivers, from each of p's outgoing channels, the
// FIFO prefix up to and including the last ORDINARY update. Release
// consistency obliges a release to wait only for the processor's earlier
// ordinary operations; earlier labeled writes need only PC among
// themselves, so labeled updates with no ordinary update behind them stay
// queued (flushing them too would turn every release into a full barrier
// and make, e.g., Peterson's algorithm correct on RCpc — masking exactly
// the weakness the paper exhibits). Labeled updates inside the prefix are
// delivered with it to preserve per-sender FIFO order.
func (m *RCMemory) flush(p history.Proc) {
	for q := 0; q < m.nprocs; q++ {
		k := int(p)*m.nprocs + q
		ch := m.channels[k]
		last := -1
		for i, u := range ch {
			if !u.labeled {
				last = i
			}
		}
		if last < 0 {
			continue
		}
		for i := 0; i <= last; i++ {
			m.apply(history.Proc(q), ch[i].loc, ch[i].cell)
		}
		m.channels[k] = append([]update(nil), ch[last+1:]...)
	}
}

// apply installs a cell of location id coherently (newer versions win).
func (m *RCMemory) apply(p history.Proc, id int, c cell) {
	if m.stores.at(int(p), id).version > c.version {
		return
	}
	*m.stores.ref(int(p), id) = c
}

// Internal implements Memory: one delivery per nonempty channel.
func (m *RCMemory) Internal() []string {
	var out []string
	for k, ch := range m.channels {
		if len(ch) > 0 {
			out = append(out, fmt.Sprintf("deliver p%d→p%d %s", k/m.nprocs, k%m.nprocs, m.locs.name(ch[0].loc)))
		}
	}
	return out
}

// NumInternal implements Memory.
func (m *RCMemory) NumInternal() int {
	n := 0
	for _, ch := range m.channels {
		if len(ch) > 0 {
			n++
		}
	}
	return n
}

// Step implements Memory.
func (m *RCMemory) Step(i int) {
	for k, ch := range m.channels {
		if len(ch) == 0 {
			continue
		}
		if i == 0 {
			m.apply(history.Proc(k%m.nprocs), ch[0].loc, ch[0].cell)
			m.channels[k] = ch[1:]
			return
		}
		i--
	}
	panic("sim: RC Step index out of range")
}

// Clone implements Memory.
func (m *RCMemory) Clone() Memory { return m.CloneInto(nil) }

// CloneInto implements Memory.
func (m *RCMemory) CloneInto(dst Memory) Memory {
	d, _ := dst.(*RCMemory)
	if d == nil {
		d = new(RCMemory)
	}
	*d = RCMemory{
		name:      m.name,
		nprocs:    m.nprocs,
		labeledSC: m.labeledSC,
		locs:      m.locs,
		syncStore: m.syncStore.cloneInto(d.syncStore),
		stores:    m.stores.cloneInto(d.stores),
		channels:  cloneQueuesInto(d.channels, m.channels),
		versions:  append(d.versions[:0], m.versions...),
		rec:       m.rec,
	}
	return d
}

// AppendFingerprint implements Memory.
func (m *RCMemory) AppendFingerprint(dst []byte) []byte { return m.encode(dst, false) }

// AppendKey implements Memory.
func (m *RCMemory) AppendKey(dst []byte) []byte { return m.encode(dst, true) }

// encode appends the fingerprint, or with byID the key, of m's state.
func (m *RCMemory) encode(dst []byte, byID bool) []byte {
	f := newFingerprinter(m.locs, byID)
	f.replica(m.syncStore.row(0))
	for p := range m.nprocs {
		f.replica(m.stores.row(p))
	}
	for _, ch := range m.channels {
		f.queue(ch)
	}
	return f.finish(dst)
}

// Recorder implements Memory.
func (m *RCMemory) Recorder() *Recorder { return &m.rec }
