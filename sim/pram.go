package sim

import (
	"fmt"
	"maps"

	"repro/history"
)

// PRAMMemory is the pipelined-RAM machine of the paper's Section 3.5: every
// processor holds a complete replica of memory; a write applies locally and
// is broadcast on reliable point-to-point FIFO channels; reads are local.
// Updates from one sender arrive in order, but channels from different
// senders are independent — exactly PRAM's consistency.
//
// The coherent variant (NewPCG) stamps every write with a global
// per-location version and makes replicas apply an incoming update only if
// it is newer than what they hold, so all replicas order writes to each
// location identically. Replicated memory with FIFO channels plus this
// last-writer-wins rule implements Goodman's processor consistency
// (PRAM + coherence).
type PRAMMemory struct {
	name     string
	nprocs   int
	coherent bool
	stores   []map[history.Loc]cell
	channels [][][]update // channels[sender][receiver], oldest first
	versions map[history.Loc]int
	rec      Recorder
}

// NewPRAM returns a PRAM memory for nprocs processors.
func NewPRAM(nprocs int) *PRAMMemory { return newReplicated("PRAM", nprocs, false) }

// NewPCG returns a coherent PRAM memory (Goodman's processor consistency)
// for nprocs processors.
func NewPCG(nprocs int) *PRAMMemory { return newReplicated("PCG", nprocs, true) }

func newReplicated(name string, nprocs int, coherent bool) *PRAMMemory {
	m := &PRAMMemory{
		name:     name,
		nprocs:   nprocs,
		coherent: coherent,
		stores:   make([]map[history.Loc]cell, nprocs),
		channels: make([][][]update, nprocs),
		versions: make(map[history.Loc]int),
		rec:      newRecorder(nprocs),
	}
	for p := range m.stores {
		m.stores[p] = make(map[history.Loc]cell)
		m.channels[p] = make([][]update, nprocs)
	}
	return m
}

// Name implements Memory.
func (m *PRAMMemory) Name() string { return m.name }

// NumProcs implements Memory.
func (m *PRAMMemory) NumProcs() int { return m.nprocs }

// Read implements Memory: local replica.
func (m *PRAMMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	c := m.stores[p][loc]
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory: apply locally, broadcast to every other replica.
//
// In the coherent variant, the writer first pulls, from each incoming
// channel, the FIFO prefix up to and including the last write to the same
// location. Its own write then serializes (by version) after every earlier
// write to the location it is obliged to order behind, together with the
// senders' program-order predecessors of those writes — without this,
// last-writer-wins dropping produces histories outside Goodman's PC: the
// writer's subsequent reads could miss writes that program-order precede
// same-location writes its own write supersedes (found by the
// simulator-versus-checker cross-validation tests).
func (m *PRAMMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	if m.coherent {
		m.pullPrefix(p, loc)
	}
	tag := m.rec.Write(p, loc, labeled)
	m.versions[loc]++
	c := cell{val: v, tag: tag, version: m.versions[loc]}
	m.apply(p, loc, c)
	for q := 0; q < m.nprocs; q++ {
		if q != int(p) {
			m.channels[p][q] = append(m.channels[p][q], update{loc: loc, cell: c, labeled: labeled})
		}
	}
}

// pullPrefix delivers, from every channel into p, the prefix up to and
// including the last queued write to loc.
func (m *PRAMMemory) pullPrefix(p history.Proc, loc history.Loc) {
	for s := range m.channels {
		ch := m.channels[s][p]
		last := -1
		for i, u := range ch {
			if u.loc == loc {
				last = i
			}
		}
		if last < 0 {
			continue
		}
		for i := 0; i <= last; i++ {
			m.apply(p, ch[i].loc, ch[i].cell)
		}
		m.channels[s][p] = append([]update(nil), ch[last+1:]...)
	}
}

// apply installs a cell into a replica, honoring coherence if enabled.
func (m *PRAMMemory) apply(p history.Proc, loc history.Loc, c cell) {
	if m.coherent && m.stores[p][loc].version > c.version {
		return // a newer write already reached this replica
	}
	m.stores[p][loc] = c
}

// Internal implements Memory: one delivery per nonempty channel.
func (m *PRAMMemory) Internal() []string {
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
func (m *PRAMMemory) Step(i int) {
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
	panic("sim: PRAM Step index out of range")
}

// Clone implements Memory.
func (m *PRAMMemory) Clone() Memory {
	c := &PRAMMemory{
		name:     m.name,
		nprocs:   m.nprocs,
		coherent: m.coherent,
		stores:   make([]map[history.Loc]cell, m.nprocs),
		channels: make([][][]update, m.nprocs),
		versions: make(map[history.Loc]int, len(m.versions)),
		rec:      m.rec,
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
func (m *PRAMMemory) Fingerprint() string {
	f := newFingerprinter()
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
func (m *PRAMMemory) Recorder() *Recorder { return &m.rec }
