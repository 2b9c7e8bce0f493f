package sim

import (
	"fmt"
	"maps"

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
	syncStore map[history.Loc]cell // RCsc only
	stores    []map[history.Loc]cell
	channels  [][][]update // channels[sender][receiver]
	versions  map[history.Loc]int
	rec       Recorder
}

// NewRCsc returns a release-consistent memory whose labeled operations are
// sequentially consistent.
func NewRCsc(nprocs int) *RCMemory { return newRC("RCsc", nprocs, true) }

// NewRCpc returns a release-consistent memory whose labeled operations are
// only processor consistent.
func NewRCpc(nprocs int) *RCMemory { return newRC("RCpc", nprocs, false) }

func newRC(name string, nprocs int, labeledSC bool) *RCMemory {
	m := &RCMemory{
		name:      name,
		nprocs:    nprocs,
		labeledSC: labeledSC,
		syncStore: make(map[history.Loc]cell),
		stores:    make([]map[history.Loc]cell, nprocs),
		channels:  make([][][]update, nprocs),
		versions:  make(map[history.Loc]int),
		rec:       newRecorder(nprocs),
	}
	for p := range m.stores {
		m.stores[p] = make(map[history.Loc]cell)
		m.channels[p] = make([][]update, nprocs)
	}
	return m
}

// Name implements Memory.
func (m *RCMemory) Name() string { return m.name }

// NumProcs implements Memory.
func (m *RCMemory) NumProcs() int { return m.nprocs }

// Read implements Memory.
func (m *RCMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	if labeled && m.labeledSC {
		c := m.syncStore[loc]
		m.rec.Read(p, loc, c.tag, labeled)
		return c.val
	}
	c := m.stores[p][loc]
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
	tag := m.rec.Write(p, loc, labeled)
	if labeled && m.labeledSC {
		m.syncStore[loc] = cell{val: v, tag: tag}
		return
	}
	m.versions[loc]++
	c := cell{val: v, tag: tag, version: m.versions[loc]}
	m.apply(p, loc, c)
	for q := 0; q < m.nprocs; q++ {
		if q != int(p) {
			m.channels[p][q] = append(m.channels[p][q], update{loc: loc, cell: c, labeled: labeled})
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
		ch := m.channels[p][q]
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
		m.channels[p][q] = append([]update(nil), ch[last+1:]...)
	}
}

// apply installs a cell coherently (newer versions win).
func (m *RCMemory) apply(p history.Proc, loc history.Loc, c cell) {
	if m.stores[p][loc].version > c.version {
		return
	}
	m.stores[p][loc] = c
}

// Internal implements Memory: one delivery per nonempty channel.
func (m *RCMemory) Internal() []string {
	var out []string
	for s := range m.channels {
		for r, ch := range m.channels[s] {
			if len(ch) > 0 {
				out = append(out, fmt.Sprintf("deliver p%d→p%d %s", s, r, ch[0].loc))
			}
		}
	}
	return out
}

// Step implements Memory.
func (m *RCMemory) Step(i int) {
	for s := range m.channels {
		for r, ch := range m.channels[s] {
			if len(ch) == 0 {
				continue
			}
			if i == 0 {
				m.apply(history.Proc(r), ch[0].loc, ch[0].cell)
				m.channels[s][r] = ch[1:]
				return
			}
			i--
		}
	}
	panic("sim: RC Step index out of range")
}

// Clone implements Memory.
func (m *RCMemory) Clone() Memory {
	c := &RCMemory{
		name:      m.name,
		nprocs:    m.nprocs,
		labeledSC: m.labeledSC,
		syncStore: maps.Clone(m.syncStore),
		stores:    make([]map[history.Loc]cell, m.nprocs),
		channels:  make([][][]update, m.nprocs),
		versions:  make(map[history.Loc]int, len(m.versions)),
		rec:       m.rec,
	}
	for p := range m.stores {
		c.stores[p] = maps.Clone(m.stores[p])
		c.channels[p] = make([][]update, m.nprocs)
		for q := range m.channels[p] {
			c.channels[p][q] = append([]update(nil), m.channels[p][q]...)
		}
	}
	for k, v := range m.versions {
		c.versions[k] = v
	}
	return c
}

// Fingerprint implements Memory.
func (m *RCMemory) Fingerprint() string {
	f := newFingerprinter()
	f.store(m.syncStore)
	for _, store := range m.stores {
		f.store(store)
	}
	for s := range m.channels {
		for _, ch := range m.channels[s] {
			f.queue(ch)
		}
	}
	return f.finish()
}

// Recorder implements Memory.
func (m *RCMemory) Recorder() *Recorder { return &m.rec }
